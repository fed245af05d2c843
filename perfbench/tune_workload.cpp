/**
 * @file
 * The `tune` workload: the paper's closed loop (Fig. 8). For each of
 * four applications a RecTmEngine is trained on the corpus without
 * that application; the window then runs ProteusRuntime over a
 * simulated system (simarch) for 3 phases x 40 monitor periods per
 * pass. Four tuning loops run at once, one per thread, each cycling
 * through the applications from a different start, as the per-shard
 * tuners of a sharded service do. Each loop is closed: a monitor
 * period is a read request, a whole tuning episode a write request.
 *
 * Why four threads: on a shared 4-vCPU host a lone busy vCPU ran at
 * about half the speed of four busy ones and swung +-25% from second
 * to second, while four busy vCPUs held within +-10%.
 */
#include <cmath>
#include <memory>
#include <numbers>
#include <string>
#include <thread>

#include "bench.hpp"
#include "rectm/engine.hpp"
#include "rectm/proteus_runtime.hpp"
#include "rectm/utility_matrix.hpp"
#include "simarch/perf_model.hpp"

namespace perfbench {
namespace {

using proteus::polytm::ConfigSpace;
using proteus::polytm::KpiKind;
using proteus::rectm::fromGoodness;
using proteus::rectm::ProteusRuntime;
using proteus::rectm::RecTmEngine;
using proteus::rectm::toGoodness;
using proteus::rectm::UtilityMatrix;
using proteus::simarch::MachineModel;
using proteus::simarch::PerfModel;
using proteus::simarch::Workload;
using proteus::simarch::WorkloadCorpus;
namespace presets = proteus::simarch::presets;

constexpr KpiKind kKpi = KpiKind::kThroughput;
constexpr int kThreads = 4;
constexpr int kSetups = 3;
constexpr int kPhases = 3;
constexpr int kPeriodsPerPhase = 40;
constexpr int kPeriods = kPhases * kPeriodsPerPhase;
/** Passes per thread whose decisions feed the quality metrics: a fixed
 *  count (each app twice over all threads), so they depend on the seed
 *  only. */
constexpr int kQualityPasses = 2;
/** A phase "fails" when the loop settles this far from its optimum. */
constexpr double kFailDfo = 0.10;

/** The three contrasting phases of an application (as in Fig. 8). */
Workload
variant(const Workload &base, int which)
{
    Workload w = base;
    w.name = base.name + "-w" + std::to_string(which + 1);
    auto &f = w.features;
    if (which == 1) { // write-heavy, highly contended, small hot set
        f.updateTxFraction = std::min(1.0, f.updateTxFraction * 3.0 + 0.3);
        f.conflictDensity *= 8.0;
        f.hotspotSkew = std::min(0.85, f.hotspotSkew + 0.45);
        f.workingSetLines /= 8.0;
    } else if (which == 2) { // much bigger transactions
        f.readsPerTx *= 12.0;
        f.writesPerTx *= 6.0;
        f.txLocalWorkCycles *= 4.0;
        f.workingSetLines *= 4.0;
        f.txSizeCv += 0.8;
    }
    return w;
}

struct App
{
    Workload base;
    PerfModel perf;
    ConfigSpace space;
    std::vector<Workload> phases;
    /** Noise-free goodness of every config in each phase. */
    std::vector<std::vector<double>> truth;
    std::vector<std::size_t> best;
    std::unique_ptr<RecTmEngine> engine;

    App(Workload w, MachineModel m, ConfigSpace s)
        : base(std::move(w)), perf(m), space(std::move(s))
    {
        for (int p = 0; p < kPhases; ++p)
            phases.push_back(variant(base, p));
    }
};

/**
 * The simulated system under the tuner: a config switch is free and a
 * monitor period returns the model's KPI with 1% Gaussian noise. Calls
 * into simarch are timed as spans under the runtime's span.
 */
class StandIn : public proteus::rectm::TunableSystem
{
  public:
    StandIn(const App &app, std::uint64_t seed) : app_(app), gen_(seed) {}

    std::size_t numConfigs() const override { return app_.space.size(); }

    void
    applyConfig(std::size_t c) override
    {
        const std::uint64_t t0 = nowNs();
        outOfMenu_ |= c >= app_.space.size();
        config_ = c < app_.space.size() ? c : 0;
        if (tracer)
            tracer->record(SpanName::kApply, t0, nowNs(), parent);
    }

    double
    measureKpi() override
    {
        const std::uint64_t t0 = nowNs();
        const double u1 = (static_cast<double>(gen_.next() >> 11) + 1) * 0x1p-53;
        const double u2 = static_cast<double>(gen_.next() >> 11) * 0x1p-53;
        const double noise = std::sqrt(-2 * std::log(u1)) *
                             std::cos(2 * std::numbers::pi * u2);
        const double v = app_.perf.kpi(app_.phases[phase],
                                       app_.space.at(config_), kKpi, false) *
                         (1.0 + 0.01 * noise);
        if (tracer)
            tracer->record(SpanName::kMeasure, t0, nowNs(), parent);
        return v;
    }

    bool outOfMenu() const { return outOfMenu_; }

    std::size_t phase = 0;
    Tracer *tracer = nullptr;
    std::int32_t parent = -1;

  private:
    const App &app_;
    Gen gen_;
    std::size_t config_ = 0;
    bool outOfMenu_ = false;
};

/** One pass kept for the quality metrics. */
struct Pass
{
    std::size_t app;
    std::vector<std::size_t> order;
    std::vector<proteus::rectm::PeriodRecord> records;
};

double
mape(const std::vector<double> &pred, const std::vector<double> &truth)
{
    double sum = 0;
    int n = 0;
    for (std::size_t c = 0; c < truth.size(); ++c) {
        if (truth[c] > 0) {
            sum += std::abs(truth[c] - pred[c]) / truth[c];
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

double
dfo(const std::vector<double> &truth, std::size_t c)
{
    const double best = *std::max_element(truth.begin(), truth.end());
    return (best - truth[c]) / best;
}

std::vector<App>
makeApps()
{
    std::vector<App> apps;
    apps.emplace_back(presets::redBlackTree(), MachineModel::machineA(),
                      ConfigSpace::machineA());
    apps.emplace_back(presets::stmbench7(), MachineModel::machineA(),
                      ConfigSpace::machineA());
    apps.emplace_back(presets::tpcc(), MachineModel::machineA(),
                      ConfigSpace::machineA());
    apps.emplace_back(presets::memcached(), MachineModel::machineB(),
                      ConfigSpace::machineB());
    return apps;
}

/**
 * Build each app's training matrix from the corpus without it and
 * train its engine, one thread per app. The corpus is the fixed
 * off-line training set of Fig. 8 (the seed drives the on-line inputs
 * only), so set-up does the same work on every seed. Returns the
 * seconds spent training, summed over the engines.
 */
double
train(std::vector<App> &apps, std::vector<Tracer> &tracers)
{
    const auto corpus = WorkloadCorpus::generate(21, 0x808);
    std::vector<double> seconds(apps.size(), 0.0);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        threads.emplace_back([&, i] {
            App &app = apps[i];
            std::vector<const Workload *> rows;
            for (const Workload &w : corpus)
                if (w.name.rfind(app.base.name + "#", 0) != 0)
                    rows.push_back(&w);
            UtilityMatrix m(rows.size(), app.space.size());
            for (std::size_t r = 0; r < rows.size(); ++r) {
                const auto kpis =
                    app.perf.kpiRow(*rows[r], app.space, kKpi, true);
                for (std::size_t c = 0; c < kpis.size(); ++c)
                    m.set(r, c, toGoodness(kpis[c], kKpi));
            }
            RecTmEngine::Options eopts;
            eopts.tuner.trials = 12;
            const std::uint64_t t0 = nowNs();
            app.engine = std::make_unique<RecTmEngine>(m, eopts);
            const std::uint64_t t1 = nowNs();
            tracers[i].record(SpanName::kTrain, t0, t1);
            seconds[i] = static_cast<double>(t1 - t0) * 1e-9;
        });
    }
    for (auto &t : threads)
        t.join();
    double total = 0;
    for (double x : seconds)
        total += x;
    return total;
}

/**
 * The window is cut into slices of about a second, each pass counted
 * in the slice it started in; figures are medians over slices. The
 * loop serves two kinds of request: a "read" is one monitor period
 * that only observes the KPI; a "write" is one tuning episode, from
 * the period that detected a change (or the start of a pass) through
 * its last SMBO exploration step, timed end to end.
 */
struct Slice
{
    Histogram hist[2][2]; // [traced][write]
    std::uint64_t periods[2] = {0, 0};
    double seconds[2] = {0, 0};

    std::uint64_t
    requests(int mode) const
    {
        return hist[mode][0].count() + hist[mode][1].count();
    }
};

/** What one tuning thread measured. */
struct Loop
{
    std::vector<Slice> slices;
    std::vector<Pass> kept;
    std::uint64_t requests = 0;
    bool recordsOk = true;
    bool inMenu = true;
};

/** Run passes on thread `t` until the window ends, finishing whole
 *  cycles over the apps (two in a traced run: one untraced, one
 *  traced) so every app weighs the same in every figure. */
void
runLoop(int t, const std::vector<App> &apps, const RunOptions &options,
        std::uint64_t window_start, Loop &loop, Tracer &tracer)
{
    proteus::rectm::RuntimeOptions ropts;
    ropts.kpi = kKpi;
    ropts.smbo.epsilon = 0.01;
    const auto n_apps = static_cast<int>(apps.size());
    const double slice_s =
        options.seconds / static_cast<double>(loop.slices.size());
    const int cycle = n_apps * (options.trace ? 2 : 1);
    std::vector<std::uint64_t> starts(kPeriods + 1);
    for (int pass = 0; secondsSince(window_start) < options.seconds ||
                       pass < kQualityPasses || pass % cycle != 0;
         ++pass) {
        const int mode = options.trace ? pass / n_apps % 2 : 0;
        Slice &slice = loop.slices[std::min(
            loop.slices.size() - 1,
            static_cast<std::size_t>(secondsSince(window_start) / slice_s))];
        const auto a = static_cast<std::size_t>((t + pass) % n_apps);
        const App &app = apps[a];
        Gen gen(mix64(options.seed ^ mix64(static_cast<std::uint64_t>(t))) +
                static_cast<std::uint64_t>(pass));
        std::vector<std::size_t> order = {0, 1, 2};
        for (std::size_t i = kPhases - 1; i > 0; --i)
            std::swap(order[i], order[gen.below(i + 1)]);

        StandIn sys(app, gen.next());
        ropts.smbo.seed = gen.next();
        ProteusRuntime runtime(*app.engine, sys, ropts);
        const std::uint64_t t0 = nowNs();
        if (mode == 1) {
            sys.tracer = &tracer;
            sys.parent = tracer.open(SpanName::kRun, t0);
        }
        const auto records = runtime.run(kPeriods, [&](int p) {
            const std::uint64_t h0 = nowNs();
            starts[static_cast<std::size_t>(p)] = h0;
            sys.phase = order[static_cast<std::size_t>(p / kPeriodsPerPhase)];
            if (mode == 1)
                tracer.record(SpanName::kPhaseHook, h0, nowNs(), sys.parent);
        });
        const std::uint64_t t1 = nowNs();
        starts[kPeriods] = t1;
        if (mode == 1)
            tracer.close(sys.parent, SpanName::kRun, t0, t1);
        slice.seconds[mode] += static_cast<double>(t1 - t0) * 1e-9;

        loop.recordsOk &= records.size() == static_cast<std::size_t>(kPeriods);
        const std::uint64_t before = slice.requests(mode);
        std::uint64_t episode = 0;
        for (std::size_t p = 0; p < records.size() && loop.recordsOk; ++p) {
            loop.recordsOk &= records[p].period == static_cast<int>(p);
            loop.inMenu &= records[p].config < app.space.size();
            const std::uint64_t d = starts[p + 1] - starts[p];
            if (records[p].exploring || records[p].changeDetected) {
                episode += d;
                continue;
            }
            if (episode)
                slice.hist[mode][1].add(episode);
            episode = 0;
            slice.hist[mode][0].add(d);
        }
        if (episode)
            slice.hist[mode][1].add(episode);
        slice.periods[mode] += records.size();
        loop.requests += slice.requests(mode) - before;
        loop.inMenu &= !sys.outOfMenu();
        if (pass < kQualityPasses)
            loop.kept.push_back({a, order, records});
    }
}

} // namespace

Result
runTune(const RunOptions &options)
{
    Result r;
    std::vector<Tracer> tracers(kThreads);

    std::vector<double> setup_s, train_s;
    std::vector<App> apps;
    for (int i = 0; i < kSetups; ++i) {
        apps.clear();
        const std::uint64_t t0 = nowNs();
        apps = makeApps();
        train_s.push_back(train(apps, tracers));
        setup_s.push_back(secondsSince(t0));
    }
    for (App &app : apps) {
        for (const Workload &w : app.phases) {
            std::vector<double> row;
            for (double k : app.perf.kpiRow(w, app.space, kKpi, false))
                row.push_back(toGoodness(k, kKpi));
            app.best.push_back(static_cast<std::size_t>(
                std::max_element(row.begin(), row.end()) - row.begin()));
            app.truth.push_back(std::move(row));
        }
    }

    const auto n_slices = static_cast<std::size_t>(
        std::max(2.0, std::round(options.seconds)));
    std::vector<Loop> loops(kThreads);
    std::vector<std::thread> threads;
    const std::uint64_t window_start = nowNs();
    for (int t = 0; t < kThreads; ++t) {
        loops[t].slices.resize(n_slices);
        threads.emplace_back(runLoop, t, std::cref(apps), std::cref(options),
                             window_start, std::ref(loops[t]),
                             std::ref(tracers[t]));
    }
    for (auto &t : threads)
        t.join();
    const double peak_rss = peakRssMib();

    Tracer spans;
    std::vector<Slice> slices(n_slices);
    std::vector<Pass> kept;
    bool records_ok = true, in_menu = true;
    for (int t = 0; t < kThreads; ++t) {
        const Loop &loop = loops[t];
        spans.merge(tracers[t]);
        records_ok &= loop.recordsOk;
        in_menu &= loop.inMenu;
        r.attempted += loop.requests;
        kept.insert(kept.end(), loop.kept.begin(), loop.kept.end());
        for (std::size_t i = 0; i < n_slices; ++i) {
            for (int m = 0; m < 2; ++m) {
                for (int w = 0; w < 2; ++w)
                    slices[i].hist[m][w].merge(loop.slices[i].hist[m][w]);
                // Rates add up across the concurrent loops.
                slices[i].periods[m] += loop.slices[i].periods[m];
                slices[i].seconds[m] += ratio(loop.slices[i].seconds[m],
                                              static_cast<double>(kThreads));
            }
        }
    }
    r.check(records_ok, "tune: a pass did not record every period once");
    r.check(in_menu, "tune: the loop chose a config outside its menu");
    // Quality over the kept passes.
    double kpi_ratio = 0, pred_err = 0, delay = 0;
    int kpi_n = 0, episodes = 0, explored = 0, boundaries = 0;
    int phases = 0, off_phases = 0;
    for (const Pass &pass : kept) {
        const App &app = apps[pass.app];
        const auto &recs = pass.records;
        for (const auto &rec : recs) {
            const std::size_t ph = pass.order[rec.period / kPeriodsPerPhase];
            kpi_ratio += rec.kpi / fromGoodness(
                                       app.truth[ph][app.best[ph]], kKpi);
            ++kpi_n;
        }
        // Episodes: maximal runs of exploring periods.
        for (std::size_t p = 0; p < recs.size();) {
            if (!recs[p].exploring) {
                ++p;
                continue;
            }
            const std::size_t ph = pass.order[recs[p].period / kPeriodsPerPhase];
            std::vector<double> query(app.space.size(),
                                      proteus::rectm::kUnknown);
            for (; p < recs.size() && recs[p].exploring; ++p) {
                query[recs[p].config] = toGoodness(recs[p].kpi, kKpi);
                ++explored;
            }
            const std::uint64_t t0 = nowNs();
            const auto pred = app.engine->predictAllGoodness(query);
            tracers[0].record(SpanName::kPredict, t0, nowNs());
            pred_err += mape(pred, app.truth[ph]);
            ++episodes;
        }
        // Detection delay after each phase change (censored at the
        // phase length when the change goes unnoticed).
        for (int b = 1; b < kPhases; ++b) {
            int d = kPeriodsPerPhase;
            for (int p = b * kPeriodsPerPhase; p < (b + 1) * kPeriodsPerPhase;
                 ++p) {
                if (recs[static_cast<std::size_t>(p)].changeDetected) {
                    d = p - b * kPeriodsPerPhase + 1;
                    break;
                }
            }
            delay += d;
            ++boundaries;
        }
        // Settled config per phase: the last non-exploring period.
        for (int ph = 0; ph < kPhases; ++ph) {
            std::size_t settled = recs[static_cast<std::size_t>(
                                           (ph + 1) * kPeriodsPerPhase - 1)]
                                      .config;
            for (int p = (ph + 1) * kPeriodsPerPhase - 1;
                 p >= ph * kPeriodsPerPhase; --p) {
                if (!recs[static_cast<std::size_t>(p)].exploring) {
                    settled = recs[static_cast<std::size_t>(p)].config;
                    break;
                }
            }
            ++phases;
            const auto &truth = app.truth[pass.order[static_cast<std::size_t>(ph)]];
            off_phases += dfo(truth, settled) > kFailDfo;
        }
    }

    // Median over the slices that ran passes of this trace mode.
    auto over_slices = [&](int mode, auto &&f) {
        std::vector<double> v;
        for (const Slice &sl : slices)
            if (sl.periods[mode])
                v.push_back(f(sl));
        return median(v);
    };
    auto percentiles = [&](const std::string &prefix, int from, int to) {
        std::vector<Histogram> merged;
        for (const Slice &sl : slices) {
            merged.emplace_back();
            for (int c = from; c < to; ++c)
                merged.back().merge(sl.hist[0][c]);
        }
        addSlicePercentiles(r, prefix, merged);
    };
    auto rate = [](int mode) {
        return [mode](const Slice &sl) {
            return ratio(sl.requests(mode), sl.seconds[mode]);
        };
    };
    const double untraced_rate = over_slices(0, rate(0));
    r.add("ops_per_s", untraced_rate, "1/s");
    percentiles("", 0, 2);
    percentiles("read_", 0, 1);
    percentiles("write_", 1, 2);
    r.add("setup_s", median(setup_s), "s");
    r.add("peak_rss_mib", peak_rss, "MiB");
    r.add("rectm.phase_fail_frac", ratio(off_phases, phases), "ratio");

    double cv = 0;
    for (const App &app : apps)
        cv += app.engine->tunerCvMape();
    r.add("rectm.train_s", median(train_s), "s");
    r.add("rectm.cv_mape", cv / static_cast<double>(apps.size()), "ratio");
    r.add("rectm.pred_mape", ratio(pred_err, episodes), "ratio");
    r.add("rectm.detect_delay_periods", ratio(delay, boundaries), "periods");
    r.add("rectm.episodes", ratio(episodes, kept.size()), "count");
    r.add("rectm.explore_periods", ratio(explored, episodes), "periods");
    r.add("rectm.kpi_vs_opt", ratio(kpi_ratio, kpi_n), "ratio");
    const double child_ns =
        static_cast<double>(spans.busyNs(SpanName::kApply) +
                            spans.busyNs(SpanName::kMeasure) +
                            spans.busyNs(SpanName::kPhaseHook));
    std::uint64_t traced_periods = 0;
    for (const Slice &sl : slices)
        traced_periods += sl.periods[1];
    r.add("rectm.decide_us",
          ratio((static_cast<double>(spans.busyNs(SpanName::kRun)) - child_ns) *
                    1e-3,
                static_cast<double>(traced_periods)),
          "us");
    r.add("simarch.kpi_us",
          ratio(static_cast<double>(spans.busyNs(SpanName::kMeasure)) * 1e-3,
                static_cast<double>(spans.count(SpanName::kMeasure))),
          "us");
    const double traced_rate = over_slices(1, rate(1));
    r.add("trace.overhead_pct",
          options.trace ? 100.0 * (1.0 - ratio(traced_rate, untraced_rate))
                        : 0.0,
          "%");
    if (options.trace)
        for (int t = 0; t < kThreads; ++t)
            dumpSpans(options.spanFile, t, tracers[t]);
    return r;
}

} // namespace perfbench
