/**
 * @file
 * End-to-end benchmark driver for the FUSION simulator.
 *
 * Runs one named workload per process (paper-cold, large-par,
 * paper-warm; README.md says why each was chosen) through the
 * library's public entry points and prints one JSON result line.
 *
 *  --trace 0  times whole sweep passes (sweep::runSweep +
 *             sweep::reportJson) with no instrumentation and reports
 *             the end-to-end metrics.
 *  --trace 1  additionally replays each pass step by step
 *             (program replay/hash, cache lookup, System
 *             construction and run, result encode/decode, cache
 *             store, report), wraps every call in a span, and
 *             reports per-layer times, exact simulated counts and
 *             the tracing overhead.
 *
 * Every pass is checked: each point must match the first pass
 * byte for byte, no point may fail except the known histogram x
 * FUSION-MESI x Large livelock, warm reports must equal the cold
 * report, and the exact counts must repeat. Any mismatch counts as
 * a failed point, sets "correct" to false and exits 1.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/results.hh"
#include "core/system.hh"
#include "core/system_config.hh"
#include "sim/hash.hh"
#include "sim/rng.hh"
#include "sweep/result_cache.hh"
#include "sweep/sweep.hh"
#include "trace/store.hh"
#include "workloads/workload.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace fusion;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using core::RunResult;
using core::SystemKind;
using sweep::SweepJob;

/** Large enough that no pass ever evicts (a pass stores < 1 MiB). */
constexpr std::uint64_t kCacheBytes = 1ull << 30;

/** Simulated-time watchdog budget on every large-par point: trips
 *  the histogram x FUSION-MESI x Large livelock after ~2 host
 *  seconds and is far above any healthy point's retirement gap. */
constexpr Tick kNoProgressTicks = 2000000;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------------
// Command line

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Scale::Small for every workload: same code paths, seconds to
     *  run (perfbench/smoke_test.py). */
    bool smoke = false;
    /** Private scratch directory for trace stores and caches; the
     *  driver empties what it creates, the caller removes it. */
    std::string tmpDir;
    /** Where the traced run writes its span log. */
    std::string spansOut;
    std::string gitSha = "unknown";
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "perfbench: " << msg << "\n"
              << "usage: perfbench --workload paper-cold|large-par|"
                 "paper-warm --seed N --seconds S --trace 0|1 "
                 "--tmp-dir DIR [--spans-out FILE] [--git-sha SHA] "
                 "[--smoke]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--tmp-dir")
                o.tmpDir = value();
            else if (a == "--spans-out")
                o.spansOut = value();
            else if (a == "--git-sha")
                o.gitSha = value();
            else if (a == "--smoke")
                o.smoke = true;
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (o.tmpDir.empty())
        usage("--tmp-dir is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

// ------------------------------------------------------------------
// Workloads

struct BenchDef
{
    const char *name;
    workloads::Scale scale;
    /** Run the AUTO orchestrator next to the five static kinds. */
    bool withAuto;
    std::size_t workers;
    /** Timed passes replay against a cache primed during set-up. */
    bool warm;
    /** guard.noProgressTicks on every point (0 = watchdog off). */
    Tick noProgressTicks;
    /** Set-up repetitions; setup_s is their median. */
    int setups;
};

const BenchDef kBenches[] = {
    {"paper-cold", workloads::Scale::Paper, true, 1, false, 0, 3},
    {"large-par", workloads::Scale::Large, false, 2, false,
     kNoProgressTicks, 3},
    {"paper-warm", workloads::Scale::Paper, true, 1, true, 0, 2},
};

const BenchDef *
findBench(const std::string &name)
{
    for (const auto &b : kBenches)
        if (name == b.name)
            return &b;
    return nullptr;
}

/** The one failure the benchmark expects: the FUSION-MESI tile
 *  livelocks on histogram at Scale::Large and the watchdog ends it.
 *  The point may also succeed once the protocol is fixed. */
bool
expectedFailure(const BenchDef &def, const SweepJob &job,
                const RunResult &r)
{
    return def.noProgressTicks != 0 && job.workload == "histogram" &&
           job.cfg.kind == SystemKind::FusionMesi &&
           job.scale == workloads::Scale::Large && r.error &&
           r.error->category == guard::ErrorCategory::NoProgress;
}

/** One sweep job list plus each job's index in canonical
 *  (workload-major, kind-minor) order. */
struct JobList
{
    std::vector<SweepJob> jobs;
    std::vector<std::size_t> canon;
};

/** Canonical job list, then shuffled by @p seed. The order is the
 *  benchmark's generated input: results are compared and hashed in
 *  canonical order, so only dispatch order depends on the seed. */
JobList
makeJobs(const BenchDef &def, workloads::Scale scale,
         std::uint64_t seed)
{
    std::vector<SystemKind> kinds(std::begin(core::kStaticSystemKinds),
                                  std::end(core::kStaticSystemKinds));
    if (def.withAuto)
        kinds.push_back(SystemKind::Auto);
    JobList l;
    for (const auto &name : workloads::workloadNames()) {
        for (SystemKind k : kinds) {
            SweepJob j;
            j.cfg = core::SystemConfig::preset(
                core::SystemConfig::Preset::Paper, k);
            j.cfg.guard.noProgressTicks = def.noProgressTicks;
            j.workload = name;
            j.scale = scale;
            j.tag = name + "/" + core::systemKindShortName(k);
            l.canon.push_back(l.jobs.size());
            l.jobs.push_back(std::move(j));
        }
    }
    Rng rng(seed ^ 0x70657266ull);
    for (std::size_t i = l.jobs.size(); i > 1; --i) {
        const std::size_t k = rng.below(i);
        std::swap(l.jobs[i - 1], l.jobs[k]);
        std::swap(l.canon[i - 1], l.canon[k]);
    }
    return l;
}

using ProgramMap =
    std::map<std::string, std::shared_ptr<const trace::Program>>;

// ------------------------------------------------------------------
// Spans (traced run only)

/**
 * In-memory span log: name, start, end and parent of every timed
 * call into a library layer. Spans nest per thread; a thread with no
 * open span parents new spans under @ref root.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name) : _log(log)
        {
            const int parent = tTop >= 0 ? tTop : log.root;
            const double t = log.now();
            {
                std::lock_guard<std::mutex> lk(log._mu);
                _id = static_cast<int>(log._spans.size());
                log._spans.push_back({std::move(name), t, t, parent});
            }
            _start = t;
            _prevTop = tTop;
            tTop = _id;
        }

        ~Scope() { close(); }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** End the span now; @return its duration in seconds. */
        double
        close()
        {
            if (_closed)
                return _dur;
            const double t = _log.now();
            {
                std::lock_guard<std::mutex> lk(_log._mu);
                _log._spans[_id].end = t;
            }
            tTop = _prevTop;
            _closed = true;
            _dur = t - _start;
            return _dur;
        }

        int id() const { return _id; }

      private:
        SpanLog &_log;
        int _id = -1;
        int _prevTop = -1;
        double _start = 0.0;
        double _dur = 0.0;
        bool _closed = false;
    };

    SpanLog() : _origin(Clock::now()) { _spans.reserve(1 << 14); }

    double now() const { return seconds(_origin, Clock::now()); }

    /** Snapshot of every span recorded so far. */
    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lk(_mu);
        return _spans;
    }

    /** Parent for spans opened on a thread with no open span. */
    int root = -1;

  private:
    static thread_local int tTop;
    Clock::time_point _origin;
    mutable std::mutex _mu;
    std::vector<Span> _spans;
};

thread_local int SpanLog::tTop = -1;

/** Per-pass layer figures derived from the spans under @p rootId. */
struct SpanSummary
{
    /** Summed duration per span name. */
    std::map<std::string, double> total;
    /** Summed self time per layer (span name up to the first '.'). */
    std::map<std::string, double> self;
    /** Root duration not covered by any descendant span. */
    double uncovered = 0.0;
};

SpanSummary
summarize(const std::vector<SpanLog::Span> &spans, int rootId)
{
    // Spans are appended in open order, so every descendant of the
    // root has a larger index than its parent.
    std::vector<char> inside(spans.size(), 0);
    inside[rootId] = 1;
    std::vector<double> childTime(spans.size(), 0.0);
    std::vector<std::pair<double, double>> intervals;
    for (std::size_t i = rootId + 1; i < spans.size(); ++i) {
        const auto &s = spans[i];
        if (s.parent < 0 || !inside[s.parent])
            continue;
        inside[i] = 1;
        childTime[s.parent] += s.end - s.start;
        intervals.emplace_back(s.start, s.end);
    }
    SpanSummary out;
    for (std::size_t i = rootId + 1; i < spans.size(); ++i) {
        if (!inside[i])
            continue;
        const auto &s = spans[i];
        const double dur = s.end - s.start;
        out.total[s.name] += dur;
        out.self[s.name.substr(0, s.name.find('.'))] +=
            dur - childTime[i];
    }
    // Union of the descendants' intervals (several threads overlap).
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0, curLo = 0.0, curHi = -1.0;
    for (const auto &[lo, hi] : intervals) {
        if (lo > curHi) {
            if (curHi > curLo)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
        } else {
            curHi = std::max(curHi, hi);
        }
    }
    if (curHi > curLo)
        covered += curHi - curLo;
    const auto &r = spans[rootId];
    out.uncovered = std::max(0.0, (r.end - r.start) - covered);
    return out;
}

void
writeSpans(const std::string &path,
           const std::vector<SpanLog::Span> &spans)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "perfbench: cannot write " << path << "\n";
        return;
    }
    os << "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto &s = spans[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"start\":%.9f,\"end\":%.9f,\"parent\":%d}",
                      s.start, s.end, s.parent);
        os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
           << s.name << "\"," << buf;
    }
    os << "\n]\n";
}

// ------------------------------------------------------------------
// Exact simulated counts

using Counts = std::map<std::string, double>;

/** Sum the RunResult-side counts of @p results in canonical order
 *  (the energy sum is floating point, so order is fixed). */
Counts
resultCounts(const JobList &l, const std::vector<RunResult> &results)
{
    std::vector<const RunResult *> byCanon(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        byCanon[l.canon[i]] = &results[i];
    Counts c;
    std::string all;
    for (const RunResult *r : byCanon) {
        all += r->toJson();
        if (r->failed())
            continue;
        c["accel.l0x_fills"] += r->l0xFills;
        c["accel.l0x_writebacks"] += r->l0xWritebacks;
        c["accel.l0x_forwards"] += r->l0xForwards;
        c["accel.l1x_hits"] += r->l1xHits;
        c["accel.l1x_misses"] += r->l1xMisses;
        c["accel.dma_ops"] += r->dmaOps;
        c["accel.dma_bytes"] += r->dmaBytes;
        c["accel.dma_cycles"] += r->dmaCycles;
        c["interconnect.l0x_l1x_flits"] += r->l0xL1xFlits;
        c["interconnect.l1x_l2_msgs"] +=
            r->l1xL2CtrlMsgs + r->l1xL2DataMsgs;
        c["interconnect.l0x_l0x_msgs"] += r->l0xL0xDataMsgs;
        c["host.fwds_to_tile"] += r->fwdsToTile;
        c["vm.ax_tlb_lookups"] += r->axTlbLookups;
        c["vm.ax_rmap_lookups"] += r->axRmapLookups;
        c["energy.hierarchy_uj"] += r->hierarchyPj() * 1e-6;
        c["orchestrator.mode_switches"] += r->modeSwitches;
        c["sim.accel_cycles"] += r->accelCycles;
        c["sim.total_cycles"] += r->totalCycles;
    }
    const double hits = c["accel.l1x_hits"];
    const double total = hits + c["accel.l1x_misses"];
    c["accel.l1x_hit_ratio"] = total > 0 ? hits / total : 0.0;
    // 53 bits so the JSON number is exact.
    c["core.result_hash"] = static_cast<double>(fnv1a(all) >> 11);
    return c;
}

/** Host-side counts only the stats tree holds. */
struct TreeCounts
{
    double llcRequests = 0, llcMisses = 0, dramAccesses = 0,
           dramRowHits = 0;

    void
    add(const stats::Group &root)
    {
        auto get = [&](const char *group, const char *name) {
            auto it = root.children().find(group);
            if (it == root.children().end() ||
                !it->second.hasScalar(name))
                return 0.0;
            return it->second.scalarValue(name);
        };
        llcRequests += get("llc", "requests");
        llcMisses += get("llc", "misses");
        dramAccesses += get("dram", "accesses");
        dramRowHits += get("dram", "row_hits");
    }

    void
    into(Counts &c) const
    {
        c["host.llc_requests"] = llcRequests;
        c["host.llc_miss_ratio"] =
            llcRequests > 0 ? llcMisses / llcRequests : 0.0;
        c["mem.dram_accesses"] = dramAccesses;
        c["mem.dram_row_hit_ratio"] =
            dramAccesses > 0 ? dramRowHits / dramAccesses : 0.0;
    }
};

// ------------------------------------------------------------------
// Output checks

/**
 * Checks every pass against the first one seen. A point counts as
 * verified when it did not fail and its JSON equals the reference.
 */
class Checker
{
  public:
    Checker(const BenchDef &def, const JobList &l) : _def(def), _l(l)
    {
        _ref.resize(l.jobs.size());
    }

    /** Adopt @p results as the reference without counting them. */
    void
    reference(const std::vector<RunResult> &results,
              const std::string &report)
    {
        for (std::size_t i = 0; i < results.size(); ++i)
            _ref[_l.canon[i]] = results[i].toJson();
        _refReport = report;
    }

    /** Check one timed pass; @return its verified points and their
     *  accelerator memory ops. */
    std::pair<std::size_t, std::uint64_t>
    check(const std::vector<RunResult> &results,
          const std::string &report,
          const sweep::SweepCacheStats &cs)
    {
        std::size_t ok = 0;
        std::uint64_t mops = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const SweepJob &j = _l.jobs[i];
            const RunResult &r = results[i];
            ++attempted;
            bool good = true;
            if (r.failed()) {
                good = false;
                if (expectedFailure(_def, j, r)) {
                    const guard::SimError &e = *r.error;
                    expected = std::string(guard::errorCategoryName(
                                   e.category)) +
                               ": " + e.message + " [" + e.component +
                               " @ tick " + std::to_string(e.tick) +
                               "]";
                } else {
                    problem(j.tag + " failed: " +
                            guard::errorCategoryName(
                                r.error->category) +
                            ": " + r.error->message);
                }
            }
            std::string &ref = _ref[_l.canon[i]];
            const std::string json = r.toJson();
            if (ref.empty()) {
                ref = json;
            } else if (ref != json) {
                problem(j.tag + " differs from an earlier pass");
                good = false;
            }
            if (good) {
                ++ok;
                mops += memOps.at(j.workload);
            } else {
                ++failed;
            }
        }
        if (_refReport.empty()) {
            _refReport = report;
        } else if (report != _refReport) {
            problem("report differs from the first report");
        }
        const std::uint64_t want =
            _def.warm ? results.size() : std::uint64_t{0};
        if (cs.hits != want)
            problem("cache hits " + std::to_string(cs.hits) +
                    ", expected " + std::to_string(want));
        return {ok, mops};
    }

    /** Exact counts must repeat across passes of one invocation. */
    void
    checkCounts(const Counts &c)
    {
        if (!_counts)
            _counts = c;
        else if (*_counts != c)
            problem("exact counts differ between passes");
    }

    void
    problem(const std::string &what)
    {
        correct = false;
        if (_problems++ < 20)
            std::cout << "# CHECK FAILED: " << what << "\n";
    }

    /** Accelerator memory ops of each workload's program. */
    std::map<std::string, std::uint64_t> memOps;

    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Message of the expected livelock, when it occurred. */
    std::string expected;

  private:
    const BenchDef &_def;
    const JobList &_l;
    std::vector<std::string> _ref;
    std::string _refReport;
    std::optional<Counts> _counts;
    std::size_t _problems = 0;
};

// ------------------------------------------------------------------
// Passes

struct Pass
{
    double wall = 0.0;
    std::vector<RunResult> results;
    std::string report;
    sweep::SweepCacheStats cache;
};

/** The untraced pass: one runSweep call plus its report. */
Pass
untracedPass(const BenchDef &def, const JobList &l,
             const fs::path &cacheDir)
{
    sweep::ResultCache cache(cacheDir.string(), kCacheBytes);
    Pass p;
    sweep::SweepOptions opt;
    opt.jobs = def.workers;
    opt.cache = &cache;
    opt.cacheStats = &p.cache;
    const auto t0 = Clock::now();
    p.results = sweep::runSweep(l.jobs, opt);
    p.report = sweep::reportJson(def.name, l.jobs, p.results);
    p.wall = seconds(t0, Clock::now());
    return p;
}

/** A traced pass: the same work as untracedPass, one public call at
 *  a time, with the per-layer figures the spans give. */
struct TracedPass : Pass
{
    int rootSpan = -1;
    TreeCounts tree;
    bool simulated = false;
    std::uint64_t events = 0;
    double busy = 0.0;
    double poolWall = 0.0;
    double tail = 0.0;
    /** System::run seconds and accelerator memory ops per kind. */
    std::array<double, 6> runByKind{};
    std::array<double, 6> mopsByKind{};
    /** Output-check failures found inside the pass. */
    std::vector<std::string> problems;
};

TracedPass
tracedPass(const BenchDef &def, const JobList &l,
           const ProgramMap &attached, const trace::TraceStore *replay,
           const fs::path &cacheDir, SpanLog &log, const char *rootName)
{
    TracedPass p;
    const auto t0 = Clock::now();
    SpanLog::Scope root(log, rootName);
    const int prevRoot = log.root;
    log.root = root.id();
    p.rootSpan = root.id();

    sweep::ResultCache cache(cacheDir.string(), kCacheBytes);
    const std::size_t n = l.jobs.size();
    p.results.resize(n);
    std::vector<TreeCounts> trees(n);
    std::vector<char> simulatedJob(n, 0);

    struct Loaded
    {
        std::shared_ptr<const trace::Program> prog;
        std::uint64_t hash = 0;
    };
    std::mutex mu; // guards loaded, p.problems and the pass totals
    std::map<std::string, Loaded> loaded;
    auto programFor = [&](const std::string &name) {
        std::lock_guard<std::mutex> lk(mu);
        auto it = loaded.find(name);
        if (it != loaded.end())
            return it->second;
        Loaded ld;
        std::optional<trace::Program> prog;
        if (replay) {
            SpanLog::Scope s(log, "trace.replay");
            prog = replay->load(name, l.jobs.front().scale);
        }
        if (prog) {
            ld.prog =
                std::make_shared<const trace::Program>(std::move(*prog));
        } else {
            if (replay)
                p.problems.push_back("trace replay of " + name +
                                     " missed");
            ld.prog = attached.at(name);
        }
        {
            SpanLog::Scope s(log, "trace.hash");
            ld.hash = trace::programHash(*ld.prog);
        }
        return loaded[name] = ld;
    };

    std::atomic<std::size_t> next{0};
    double firstIdle = -1.0;
    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n) {
                const double t = seconds(t0, Clock::now());
                std::lock_guard<std::mutex> lk(mu);
                if (firstIdle < 0.0 || t < firstIdle)
                    firstIdle = t;
                return;
            }
            const SweepJob &j = l.jobs[i];
            RunResult &res = p.results[i];
            SpanLog::Scope job(log, "sweep.job");
            const Loaded ld = programFor(j.workload);
            const sweep::CacheKey key{j.cfg.canonicalHash(), ld.hash};
            std::optional<RunResult> hit;
            {
                SpanLog::Scope s(log, "sweep.cache_lookup");
                hit = cache.lookup(key);
            }
            double runSec = 0.0;
            if (hit) {
                res = std::move(*hit);
            } else {
                std::unique_ptr<core::System> sys;
                {
                    SpanLog::Scope s(log, "core.ctor");
                    sys = std::make_unique<core::System>(j.cfg,
                                                         *ld.prog);
                }
                {
                    SpanLog::Scope s(log, "core.run");
                    try {
                        res = sys->run();
                    } catch (const guard::SimErrorException &ex) {
                        res = RunResult{};
                        res.workload = j.workload;
                        res.kind = j.cfg.kind;
                        res.error = ex.error();
                    }
                    runSec = s.close();
                }
                trees[i].add(sys->ctx().stats.root());
                simulatedJob[i] = 1;
                {
                    SpanLog::Scope s(log, "core.dtor");
                    sys.reset();
                }
                SpanLog::Scope s(log, "sweep.cache_store");
                cache.store(key, res);
            }
            std::string blob;
            RunResult back;
            bool decoded = false;
            if (!res.failed()) {
                {
                    SpanLog::Scope s(log, "core.result_encode");
                    blob = core::serializeResult(res);
                }
                SpanLog::Scope s(log, "core.result_decode");
                decoded = core::deserializeResult(blob, back);
            }
            std::string json;
            {
                SpanLog::Scope s(log, "core.to_json");
                json = res.toJson();
            }
            const bool roundTrip =
                res.failed() || (decoded && back.toJson() == json);
            const double jobSec = job.close();
            std::lock_guard<std::mutex> lk(mu);
            if (!roundTrip)
                p.problems.push_back(j.tag +
                                     " does not survive an encode/"
                                     "decode round trip");
            p.busy += jobSec;
            if (hit) {
                ++p.cache.hits;
            } else {
                ++p.cache.misses;
                const auto k = static_cast<std::size_t>(j.cfg.kind);
                p.runByKind[k] += runSec;
                if (!res.failed())
                    p.mopsByKind[k] += ld.prog->memOpCount();
                if (res.perf)
                    p.events += res.perf->events;
            }
        }
    };
    if (def.workers == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        for (std::size_t w = 0; w < def.workers; ++w)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    p.poolWall = seconds(t0, Clock::now());
    p.tail = p.poolWall - firstIdle;
    {
        SpanLog::Scope s(log, "sweep.report");
        p.report = sweep::reportJson(def.name, l.jobs, p.results);
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (simulatedJob[i] && !p.results[i].failed()) {
            p.simulated = true;
            p.tree.llcRequests += trees[i].llcRequests;
            p.tree.llcMisses += trees[i].llcMisses;
            p.tree.dramAccesses += trees[i].dramAccesses;
            p.tree.dramRowHits += trees[i].dramRowHits;
        }
    }
    root.close();
    log.root = prevRoot;
    p.wall = seconds(t0, Clock::now());
    return p;
}

// ------------------------------------------------------------------
// Set-up

/** A fresh directory under the private scratch area. */
fs::path
freshDir(const fs::path &tmp, const std::string &name)
{
    fs::path d = tmp / name;
    fs::remove_all(d);
    fs::create_directories(d);
    return d;
}

/** Build every program with the global trace store armed on an
 *  empty directory: each build generates, self-checks and records.*/
ProgramMap
buildPrograms(workloads::Scale scale, const fs::path &traceDir)
{
    trace::setGlobalStoreDir(traceDir.string());
    ProgramMap progs;
    for (const auto &name : workloads::workloadNames()) {
        auto p = workloads::buildProgram(name, scale);
        if (!p) {
            std::cerr << "perfbench: workload " << name
                      << " does not build\n";
            std::exit(1);
        }
        progs[name] = std::make_shared<const trace::Program>(
            std::move(*p));
    }
    return progs;
}

/** Traced set-up: the same builds, split into generation (store
 *  disarmed), recording and hashing. */
ProgramMap
buildProgramsTraced(workloads::Scale scale, const fs::path &traceDir,
                    SpanLog &log)
{
    trace::setGlobalStoreDir("");
    trace::TraceStore store(traceDir.string());
    ProgramMap progs;
    for (const auto &name : workloads::workloadNames()) {
        std::optional<trace::Program> p;
        {
            SpanLog::Scope s(log, "workloads.build");
            p = workloads::buildProgram(name, scale);
        }
        if (!p) {
            std::cerr << "perfbench: workload " << name
                      << " does not build\n";
            std::exit(1);
        }
        {
            SpanLog::Scope s(log, "trace.record");
            store.store(name, scale, *p);
        }
        progs[name] = std::make_shared<const trace::Program>(
            std::move(*p));
    }
    trace::setGlobalStoreDir(traceDir.string());
    return progs;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------------
// Output

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(const Checker &chk, const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\":" << (chk.correct ? "true" : "false")
       << ",\"attempted\":" << chk.attempted
       << ",\"failed\":" << chk.failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        os << (i ? "," : "") << '"' << m.name << "\":{\"value\":"
           << buf << ",\"unit\":\"" << m.unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** Per-layer metrics of a traced run. Times are medians over the
 *  traced passes (set-up layers: over the set-ups); counts come from
 *  the passes and must repeat across them. */
std::vector<Metric>
tracedMetrics(const BenchDef &def, const JobList &jobs, Checker &chk,
              const std::vector<SpanSummary> &setupSpans,
              const std::vector<TracedPass> &traced,
              const std::vector<SpanLog::Span> &spans,
              const std::vector<double> &untracedWall,
              const std::vector<double> &tracedWall,
              const TracedPass *primed)
{
    std::vector<Metric> metrics;
    // Set-up layers (median over set-ups).
    auto setupMedian = [&](const std::string &name) {
        std::vector<double> v;
        for (const auto &s : setupSpans) {
            auto it = s.total.find(name);
            v.push_back(it == s.total.end() ? 0.0 : it->second);
        }
        return median(v);
    };
    metrics.push_back(
        {"workloads.build_s", setupMedian("workloads.build"), "s"});
    metrics.push_back(
        {"trace.record_s", setupMedian("trace.record"), "s"});

    // Timed-pass layers (median over traced passes).
    std::vector<SpanSummary> sums;
    for (const auto &tp : traced)
        sums.push_back(summarize(spans, tp.rootSpan));
    auto passMedian = [&](auto get) {
        std::vector<double> v;
        for (std::size_t k = 0; k < traced.size(); ++k)
            v.push_back(get(traced[k], sums[k]));
        return median(v);
    };
    auto spanTotal = [&](const std::string &name) {
        return passMedian([&](const TracedPass &, const SpanSummary &s) {
            auto it = s.total.find(name);
            return it == s.total.end() ? 0.0 : it->second;
        });
    };
    for (const char *name :
         {"trace.replay", "trace.hash", "core.ctor", "core.run",
          "core.dtor", "core.to_json", "core.result_encode",
          "core.result_decode", "sweep.cache_lookup",
          "sweep.cache_store", "sweep.report"})
        metrics.push_back(
            {std::string(name) + "_s", spanTotal(name), "s"});
    for (std::size_t k = 0; k < 6; ++k) {
        const std::string kind =
            core::systemKindCliName(static_cast<SystemKind>(k));
        metrics.push_back(
            {"core.run_s." + kind,
             passMedian([&](const TracedPass &tp,
                            const SpanSummary &) {
                 return tp.runByKind[k];
             }),
             "s"});
        metrics.push_back(
            {"core.ns_per_mop." + kind,
             passMedian([&](const TracedPass &tp,
                            const SpanSummary &) {
                 return tp.mopsByKind[k] > 0
                            ? tp.runByKind[k] * 1e9 /
                                  tp.mopsByKind[k]
                            : 0.0;
             }),
             "ns"});
    }
    const TracedPass &first = traced.front();
    metrics.push_back(
        {"sim.events", static_cast<double>(first.events), "count"});
    metrics.push_back(
        {"sim.ns_per_event",
         passMedian([&](const TracedPass &tp, const SpanSummary &s) {
             auto it = s.total.find("core.run");
             return tp.events && it != s.total.end()
                        ? it->second * 1e9 / tp.events
                        : 0.0;
         }),
         "ns"});
    const double points = static_cast<double>(jobs.jobs.size());
    metrics.push_back(
        {"sweep.cache_hit_ratio",
         static_cast<double>(first.cache.hits) / points, "ratio"});
    metrics.push_back(
        {"sweep.worker_busy_ratio",
         passMedian([&](const TracedPass &tp, const SpanSummary &) {
             return tp.busy / (def.workers * tp.poolWall);
         }),
         "ratio"});
    metrics.push_back(
        {"sweep.tail_s",
         passMedian([&](const TracedPass &tp, const SpanSummary &) {
             return tp.tail;
         }),
         "s"});
    std::size_t failedPoints = 0;
    for (const auto &r : first.results)
        failedPoints += r.failed() ? 1 : 0;
    metrics.push_back({"sweep.failed_points",
                       static_cast<double>(failedPoints), "count"});
    for (const char *layer : {"trace", "core", "sweep"})
        metrics.push_back(
            {std::string(layer) + ".self_s",
             passMedian([&](const TracedPass &,
                            const SpanSummary &s) {
                 auto it = s.self.find(layer);
                 return it == s.self.end() ? 0.0 : it->second;
             }),
             "s"});
    const double untracedS = median(untracedWall);
    const double tracedS = median(tracedWall);
    metrics.push_back({"bench.untraced_s", untracedS, "s"});
    metrics.push_back({"bench.traced_s", tracedS, "s"});
    metrics.push_back(
        {"bench.trace_overhead_s", tracedS - untracedS, "s"});
    metrics.push_back(
        {"bench.uncovered_s",
         passMedian([&](const TracedPass &, const SpanSummary &s) {
             return s.uncovered;
         }),
         "s"});

    // Exact counts: RunResult side from every traced pass (they
    // must repeat), stats-tree side from whichever traced pass
    // simulated (the priming pass on paper-warm).
    std::optional<Counts> exact;
    for (const auto &tp : traced) {
        Counts c = resultCounts(jobs, tp.results);
        const TreeCounts &tree =
            tp.simulated || !primed ? tp.tree : primed->tree;
        tree.into(c);
        if (!exact)
            exact = c;
        else if (*exact != c)
            chk.problem("exact counts differ between traced passes");
    }
    for (const auto &[name, value] : *exact)
        metrics.push_back(
            {name, value,
             name.find("ratio") != std::string::npos ? "ratio"
             : name == "energy.hierarchy_uj"          ? "uJ"
             : name.find("cycles") != std::string::npos
                 ? "cycles"
                 : "count"});
    return metrics;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const BenchDef *def = findBench(opt.workload);
    if (!def)
        usage("unknown workload '" + opt.workload + "'");
    const workloads::Scale scale =
        opt.smoke ? workloads::Scale::Small : def->scale;
    const int setups = opt.smoke ? 1 : def->setups;
    const fs::path tmp = opt.tmpDir;
    fs::create_directories(tmp);

    std::cout << "# perfbench workload=" << def->name
              << " seed=" << opt.seed << " trace=" << opt.trace
              << " scale=" << workloads::scaleName(scale)
              << " workers=" << def->workers
              << " nproc=" << std::thread::hardware_concurrency()
              << " compiler=\"" << compilerName()
              << "\" build=" << PERFBENCH_BUILD_TYPE
              << " git=" << opt.gitSha << "\n";

    JobList jobs = makeJobs(*def, scale, opt.seed);
    Checker chk(*def, jobs);
    SpanLog log;

    // ---- Set-up: program builds (+ the cold priming pass for warm),
    // repeated; the last repetition's programs and stores are used.
    std::vector<double> setupTimes;
    std::vector<SpanSummary> setupSpans;
    ProgramMap progs;
    fs::path traceDir, warmCache;
    std::optional<TracedPass> primed; // traced warm set-up
    for (int s = 0; s < setups; ++s) {
        traceDir = freshDir(tmp, "trace-" + std::to_string(s));
        if (def->warm)
            warmCache = freshDir(tmp, "cache-warm-" + std::to_string(s));
        const auto t0 = Clock::now();
        if (!opt.trace) {
            progs = buildPrograms(scale, traceDir);
            if (def->warm) {
                Pass prime = untracedPass(*def, jobs, warmCache);
                setupTimes.push_back(seconds(t0, Clock::now()));
                chk.reference(prime.results, prime.report);
            } else {
                setupTimes.push_back(seconds(t0, Clock::now()));
            }
        } else {
            SpanLog::Scope root(log, "bench.setup");
            log.root = root.id();
            progs = buildProgramsTraced(scale, traceDir, log);
            if (def->warm) {
                trace::TraceStore store(traceDir.string());
                primed = tracedPass(*def, jobs, progs, &store, warmCache,
                                    log, "bench.prime");
                for (const auto &what : primed->problems)
                    chk.problem(what);
                chk.reference(primed->results, primed->report);
            }
            root.close();
            log.root = -1;
            setupSpans.push_back(summarize(log.spans(), root.id()));
            setupTimes.push_back(seconds(t0, Clock::now()));
        }
        if (s + 1 < setups) {
            fs::remove_all(traceDir);
            if (def->warm)
                fs::remove_all(warmCache);
        }
    }
    for (const auto &[name, prog] : progs)
        chk.memOps[name] = prog->memOpCount();
    if (!def->warm) {
        for (auto &j : jobs.jobs)
            j.prog = progs.at(j.workload);
    }

    // ---- Timed passes until --seconds is used up. Cold passes get a
    // fresh empty cache each; warm passes reuse the primed one.
    std::vector<double> pointsPerS, mopsPerS, untracedWall, tracedWall,
        passWalls;
    std::vector<TracedPass> traced;
    const trace::TraceStore replay(traceDir.string());
    const auto phaseStart = Clock::now();
    for (int pass = 0;; ++pass) {
        const bool doTraced = opt.trace && pass % 2 == 1;
        const fs::path cacheDir =
            def->warm ? warmCache
                      : freshDir(tmp, "cache-" + std::to_string(pass));
        Pass p;
        if (doTraced) {
            TracedPass tp = tracedPass(*def, jobs, progs,
                                       def->warm ? &replay : nullptr,
                                       cacheDir, log, "bench.pass");
            tracedWall.push_back(tp.wall);
            for (const auto &what : tp.problems)
                chk.problem(what);
            p = tp;
            traced.push_back(std::move(tp));
        } else {
            p = untracedPass(*def, jobs, cacheDir);
            untracedWall.push_back(p.wall);
        }
        const auto [ok, mops] = chk.check(p.results, p.report, p.cache);
        std::cout << "# pass " << pass
                  << (doTraced ? " traced" : " untraced")
                  << " wall_s=" << p.wall << " verified=" << ok << "/"
                  << p.results.size() << "\n";
        chk.checkCounts(resultCounts(jobs, p.results));
        pointsPerS.push_back(static_cast<double>(ok) / p.wall);
        mopsPerS.push_back(static_cast<double>(mops) / p.wall);
        if (!def->warm)
            fs::remove_all(cacheDir);
        // Hand the pass's freed memory back to the kernel, so every
        // pass faults its memory in afresh, like a harness process
        // does. Otherwise glibc's dynamic mmap threshold lets some
        // processes reuse it and others not: a 20% bimodal swing on
        // paper-warm.
        malloc_trim(0);
        // Stop before a pass would overrun --seconds, once the
        // minimum passes are in: one untraced (plus one traced with
        // --trace 1), and three on the sub-second warm passes.
        passWalls.push_back(p.wall);
        const bool minimum = (!opt.trace || !traced.empty()) &&
                             (!def->warm || pass >= 2);
        if (minimum && seconds(phaseStart, Clock::now()) +
                               median(passWalls) >
                           opt.seconds)
            break;
    }

    if (!chk.expected.empty())
        std::cout << "# expected failure: histogram/FU-M at scale "
                  << workloads::scaleName(scale) << ": "
                  << chk.expected << "\n";

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", median(setupTimes), "s"},
            {"points_per_s", median(pointsPerS), "1/s"},
            {"sim_mops_per_s", median(mopsPerS) * 1e-6, "1/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else {
        metrics = tracedMetrics(*def, jobs, chk, setupSpans, traced,
                                log.spans(), untracedWall,
                                tracedWall, primed ? &*primed : nullptr);
    }

    if (opt.trace && !opt.spansOut.empty())
        writeSpans(opt.spansOut, log.spans());
    trace::setGlobalStoreDir("");
    std::error_code ec;
    fs::remove_all(traceDir, ec);
    if (def->warm)
        fs::remove_all(warmCache, ec);
    printResult(chk, metrics);
    return chk.correct ? 0 : 1;
}
