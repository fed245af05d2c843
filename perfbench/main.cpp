/**
 * @file
 * perfbench: runs one workload of the repository benchmark and prints
 * a report, then one JSON result line.
 *
 *   perfbench --workload point-large|txn-wal|tune --seed N --seconds S
 *             --trace 0|1 --scratch DIR [--spans FILE] [--commit SHA]
 *
 * Every report line starts with '#'. The last line is
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
 * holding every metric the workload measured; perfbench/run.py picks
 * the ones BENCHMARK.json names. Exit code 0 only when every
 * correctness check passed.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <cpuid.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

const char *
spanNameString(SpanName name)
{
    static const char *const kNames[] = {
        "kvstore.get",  "kvstore.put",       "kvstore.del",
        "kvstore.txn",  "kvstore.preload",   "kvstore.telemetry",
        "wal.flush",    "recovery.reopen",   "rectm.train",
        "rectm.run",    "simarch.apply",     "simarch.kpi",
        "bench.phase",  "rectm.predict",
    };
    static_assert(std::size(kNames) ==
                  static_cast<std::size_t>(SpanName::kCount));
    return kNames[static_cast<std::size_t>(name)];
}

void
dumpSpans(const std::string &path, int thread, const Tracer &tracer)
{
    std::ofstream out(path, std::ios::app);
    for (const Tracer::Span &s : tracer.spans())
        out << thread << ',' << spanNameString(s.name) << ',' << s.start
            << ',' << s.end << ',' << s.parent << '\n';
}

} // namespace perfbench

namespace {

std::string
cpuModel()
{
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
        if (!__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
}

/** Compiled with optimisation and without a sanitizer. */
constexpr bool
benchBuild()
{
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
    return false;
#else
    return std::string_view(PERFBENCH_FLAGS).find("-fsanitize") ==
           std::string_view::npos;
#endif
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload point-large|txn-wal|tune "
                 "--seed N --seconds S --trace 0|1 --scratch DIR "
                 "[--spans FILE] [--commit SHA]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    namespace fs = std::filesystem;
    using namespace perfbench;

    std::string workload, commit = "unknown";
    RunOptions options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], val = argv[i + 1];
        if (key == "--workload")
            workload = val;
        else if (key == "--seed")
            options.seed = std::stoull(val);
        else if (key == "--seconds")
            options.seconds = std::stod(val);
        else if (key == "--trace")
            options.trace = val == "1";
        else if (key == "--scratch")
            options.scratchDir = val;
        else if (key == "--spans")
            options.spanFile = val;
        else if (key == "--commit")
            commit = val;
        else
            return usage();
    }
    if (argc % 2 == 0 || workload.empty() || options.scratchDir.empty() ||
        !(options.seconds > 0))
        return usage();
    if (!benchBuild()) {
        std::fprintf(stderr, "perfbench: refusing to report from an "
                             "unoptimised or sanitizer build\n");
        return 2;
    }
    Result (*run)(const RunOptions &) = workload == "point-large" ? runPointLarge
                                        : workload == "txn-wal"   ? runTxnWal
                                        : workload == "tune"      ? runTune
                                                                  : nullptr;
    if (!run)
        return usage();

    // A fresh scratch directory per run, removed on every exit path: a
    // stale WAL must never be recovered into this run.
    std::error_code ec;
    if (!fs::create_directory(options.scratchDir, ec)) {
        std::fprintf(stderr, "perfbench: scratch directory %s %s\n",
                     options.scratchDir.c_str(),
                     ec ? ec.message().c_str() : "already exists");
        return 2;
    }
    struct RemoveOnExit
    {
        fs::path dir;
        ~RemoveOnExit()
        {
            std::error_code e;
            fs::remove_all(dir, e);
        }
    } scratch{options.scratchDir};
    if (options.trace && !options.spanFile.empty()) {
        std::ofstream(options.spanFile, std::ios::trunc)
            << "thread,name,start_ns,end_ns,parent\n";
    }

    long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    std::printf("# meta workload=%s seed=%llu window_s=%g trace=%d "
                "nproc=%u cpu=\"%s\" l3_mib=%.1f compiler=\"%s\" "
                "build_type=%s flags=\"%s\" commit=%s\n",
                workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0,
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                l3 > 0 ? static_cast<double>(l3) / kMib : 0.0,
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_FLAGS,
                commit.c_str());

    Result r;
    try {
        r = run(options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                     e.what());
        return 1;
    }

    std::string json = "{";
    for (const Metric &m : r.metrics) {
        if (!std::isfinite(m.value))
            r.errors.push_back("metric " + m.name + " is not finite");
        std::printf("# %-32s %16.6g %-6s", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (m.samples)
            std::printf(" n=%llu", static_cast<unsigned long long>(m.samples));
        std::printf("\n");
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        json += (json.size() > 1 ? ", \"" : "\"") + m.name +
                "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit +
                "\"}";
    }
    json += "}";
    for (const std::string &e : r.errors)
        std::printf("# CHECK FAILED: %s\n", e.c_str());
    const bool correct = r.errors.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
