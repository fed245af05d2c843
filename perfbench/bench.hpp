/**
 * @file
 * Shared pieces of the repository benchmark: run options, the result
 * ledger, a fine-grained latency histogram, the span tracer and a
 * small seeded generator.
 *
 * The benchmark measures every layer from outside: it calls only the
 * public API of kvstore, rectm and simarch, times the calls it makes
 * and reads the counters those layers already export.
 */
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions
{
    std::uint64_t seed = 1;
    /** Length of the measured window. */
    double seconds = 10;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Per-run scratch directory (the WAL); must not exist yet. */
    std::string scratchDir;
    /** Where a traced run writes its kept spans (CSV). */
    std::string spanFile;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    /** Samples behind a percentile (0 = not a percentile). */
    std::uint64_t samples = 0;
};

/** What one workload run reports; main() prints it. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Correctness-check failures; any entry makes the run fail. */
    std::vector<std::string> errors;

    void
    add(std::string name, double value, std::string unit,
        std::uint64_t samples = 0)
    {
        metrics.push_back(
            {std::move(name), value, std::move(unit), samples});
    }

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            errors.push_back(what);
    }
};

Result runPointLarge(const RunOptions &options);
Result runTxnWal(const RunOptions &options);
Result runTune(const RunOptions &options);

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** Peak resident set of this process so far, in MiB. */
double peakRssMib();

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** a / b, or 0 when b is 0 (a layer the workload never entered). */
inline double
ratio(double a, double b)
{
    return b != 0 ? a / b : 0.0;
}

constexpr double kMib = 1024.0 * 1024.0;

/** SplitMix64: seeds per-client generators from the run seed. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** xorshift64* generator for the op streams. */
class Gen
{
  public:
    explicit Gen(std::uint64_t seed) : s_(mix64(seed) | 1) {}

    std::uint64_t
    next()
    {
        s_ ^= s_ >> 12;
        s_ ^= s_ << 25;
        s_ ^= s_ >> 27;
        return s_ * 0x2545f4914f6cdd1dull;
    }

    /** Uniform in [0, bound). */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

  private:
    std::uint64_t s_;
};

/**
 * Log-linear histogram with 128 sub-buckets per power of two: values
 * below 128 ns are exact, larger ones land in buckets at most 1/128
 * (0.8%) wide, so a percentile is exact to within 0.8%.
 */
class Histogram
{
  public:
    static constexpr unsigned kSubBits = 7;
    static constexpr std::uint64_t kSub = 1u << kSubBits;
    static constexpr std::size_t kBuckets = kSub * (64 - kSubBits + 1);

    Histogram() : counts_(kBuckets, 0) {}

    void
    add(std::uint64_t v)
    {
        ++counts_[index(v)];
        ++total_;
    }

    void
    merge(const Histogram &other)
    {
        for (std::size_t i = 0; i < kBuckets; ++i)
            counts_[i] += other.counts_[i];
        total_ += other.total_;
    }

    std::uint64_t count() const { return total_; }

    /** Value at quantile q in (0, 1]: the midpoint of the bucket that
     *  holds the ceil(q * count)-th smallest sample. */
    double
    quantile(double q) const
    {
        if (total_ == 0)
            return 0;
        auto rank = static_cast<std::uint64_t>(
            q * static_cast<double>(total_) + 0.999999);
        rank = std::clamp<std::uint64_t>(rank, 1, total_);
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            seen += counts_[i];
            if (seen >= rank)
                return midpoint(i);
        }
        return midpoint(kBuckets - 1);
    }

  private:
    static std::size_t
    index(std::uint64_t v)
    {
        if (v < kSub)
            return static_cast<std::size_t>(v);
        const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(v));
        const unsigned shift = e - kSubBits;
        return static_cast<std::size_t>(
            kSub * (shift + 1) + ((v >> shift) & (kSub - 1)));
    }

    static double
    midpoint(std::size_t i)
    {
        if (i < kSub)
            return static_cast<double>(i);
        const std::size_t shift = i / kSub - 1;
        const double width = static_cast<double>(std::uint64_t{1} << shift);
        const double low =
            static_cast<double>((kSub + i % kSub) << shift);
        return low + (width - 1) / 2;
    }

    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/** Span names: one per call boundary the benchmark times. */
enum class SpanName : std::uint8_t
{
    kGet,
    kPut,
    kDel,
    kTxn,
    kPreload,
    kTelemetry,
    kWalFlush,
    kRecover,
    kTrain,
    kRun,
    kApply,
    kMeasure,
    kPhaseHook,
    kPredict,
    kCount,
};

const char *spanNameString(SpanName name);

/**
 * Per-thread span log. Each span records its name, start, end and the
 * index of its parent span (or -1). Spans stay in memory up to a fixed
 * capacity and are written out at the end of the run; per-name counts
 * and busy time are aggregated for every span, kept or not.
 */
class Tracer
{
  public:
    struct Span
    {
        std::uint64_t start;
        std::uint64_t end;
        std::int32_t parent;
        SpanName name;
    };

    static constexpr std::size_t kKeep = 1 << 14;

    Tracer() { spans_.reserve(kKeep); }

    /** Record a finished span; returns its index (-1 if not kept). */
    std::int32_t
    record(SpanName name, std::uint64_t start, std::uint64_t end,
           std::int32_t parent = -1)
    {
        const auto n = static_cast<std::size_t>(name);
        ++count_[n];
        busy_[n] += end - start;
        if (spans_.size() == kKeep)
            return -1;
        spans_.push_back({start, end, parent, name});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }

    /** Open a span whose end is filled in by close(); children name
     *  it as their parent. */
    std::int32_t
    open(SpanName name, std::uint64_t start)
    {
        if (spans_.size() == kKeep)
            return -1;
        spans_.push_back({start, 0, -1, name});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }

    void
    close(std::int32_t idx, SpanName name, std::uint64_t start,
          std::uint64_t end)
    {
        const auto n = static_cast<std::size_t>(name);
        ++count_[n];
        busy_[n] += end - start;
        if (idx >= 0)
            spans_[static_cast<std::size_t>(idx)].end = end;
    }

    std::uint64_t count(SpanName n) const
    {
        return count_[static_cast<std::size_t>(n)];
    }
    std::uint64_t busyNs(SpanName n) const
    {
        return busy_[static_cast<std::size_t>(n)];
    }
    const std::vector<Span> &spans() const { return spans_; }

    void
    merge(const Tracer &other)
    {
        for (std::size_t i = 0; i < count_.size(); ++i) {
            count_[i] += other.count_[i];
            busy_[i] += other.busy_[i];
        }
    }

  private:
    std::vector<Span> spans_;
    std::array<std::uint64_t, static_cast<std::size_t>(SpanName::kCount)>
        count_{};
    std::array<std::uint64_t, static_cast<std::size_t>(SpanName::kCount)>
        busy_{};
};

/** Append the kept spans of one thread to `path` as CSV rows
 *  thread,name,start_ns,end_ns,parent. */
void dumpSpans(const std::string &path, int thread, const Tracer &tracer);

/**
 * Add `<prefix>p50_ns` and `<prefix>p99_ns`: the median over the
 * window's slices of each slice's percentile, with the number of
 * samples behind them.
 */
inline void
addSlicePercentiles(Result &r, const std::string &prefix,
                    const std::vector<Histogram> &slices)
{
    std::uint64_t n = 0;
    for (const Histogram &h : slices)
        n += h.count();
    for (double q : {0.50, 0.99}) {
        std::vector<double> v;
        for (const Histogram &h : slices)
            if (h.count())
                v.push_back(h.quantile(q));
        r.add(prefix + (q == 0.50 ? "p50_ns" : "p99_ns"), median(v), "ns",
              n);
    }
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
