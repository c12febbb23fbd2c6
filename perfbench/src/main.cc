/**
 * @file
 * vitdyn_perfbench: runs one benchmark workload and prints its metrics.
 *
 *   vitdyn_perfbench --workload serve_steady|frontier_closed --seed N
 *                    --seconds S --trace 0|1 [--trace-out FILE]
 *   vitdyn_perfbench --setup-only --workload W --seed N
 *
 * The program under test is driven only through its public APIs:
 * ServeScheduler, DrtEngine, Executor and the metrics/trace exports.
 * With --trace 0 the last stdout line is a JSON object holding the
 * end-to-end metrics; with --trace 1 the run measures the workload
 * once untraced and once traced (same schedule) and reports the
 * per-layer metrics plus the tracing overhead. --setup-only times one
 * set-up and exits (perfbench/run.py repeats it for setup_s).
 *
 * Exit status: 0 when every output matched its reference and every
 * request reached exactly one terminal outcome, 1 otherwise, 2 on
 * usage errors.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hh"
#include "graph/weight_store.hh"
#include "obs/metrics.hh"
#include "obs/request_context.hh"
#include "obs/span.hh"
#include "perfbench.hh"
#include "profile/gpu_model.hh"
#include "serve/scheduler.hh"
#include "tensor/kernels/kernels.hh"
#include "util/random.hh"
#include "util/threadpool.hh"

using namespace vitdyn;
using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

uint64_t
nsOf(Clock::time_point t)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
}

// ---------------------------------------------------------------------
// Pinned run settings and frozen workloads
// ---------------------------------------------------------------------

/** Kernel-pool size (calling thread included). Pinned so results do
 *  not follow the host's core count; two leaves the generator, the
 *  response collector and the host headroom on a 4-core machine. */
constexpr int kPoolThreads = 2;

/** Seeded input images per model family. */
constexpr size_t kPoolImages = 8;

/** Logical tenants of the open loop: tenant t is class t % 3 and asks
 *  for frontier entry t % 5, so every (class, config) pair has a
 *  tenant. */
constexpr size_t kTenants = 15;

/** A generator whose p99 lateness (send time minus due time) exceeds
 *  a tenth of the tightest deadline measured itself, not the program:
 *  the run is marked invalid. So is one whose peak-RSS mark could not
 *  be reset before the measured phase. */
constexpr double kMaxLateP99Ms = 4.0;

/** The frozen parameters of the open-loop serving workload. */
struct ServeWorkload
{
    double ratePerS;
    /** Deadline per class from the due time (ms); 0 = none. */
    std::array<double, kServeClasses> deadlineMs;
    size_t queueCapacity;
    size_t maxBatch;
    /** Wall ms per LUT cost unit the scheduler starts from (frozen
     *  from the parent's measurement; the scheduler recalibrates
     *  online from there). */
    double initialCostScale;
};

// The rate is absolute requests/s, frozen from the parent commit's
// measured capacity on a 4-core x86-64 host (AVX2, kPoolThreads = 2;
// see README.md): ~40% of the full-quality service rate of the budget
// mix (~150/s). At 60% run-to-run drift of the host, amplified by
// queueing, spread the latency tail past the bound. Never derive it at
// run time: a faster program must face the same load to show its gain.
const ServeWorkload kServeSteady = {60.0, {40.0, 80.0, 250.0}, 64, 4, 3.0};

/** A traced run measures two phases (untraced, then traced) of at most
 *  this long each, which bounds the in-memory span ring. */
constexpr double kMaxTracedPhaseS = 4.0;

const char *const kFrontierFamilies[] = {"seg128", "swin64"};
const char *const kServeFamily = "seg64";

/** Every family any workload runs, in metric-name order. */
const char *const kAllFamilies[] = {"seg64", "seg128", "swin64"};

/** Graph layers reported as layer.<name>_ms: the ten with the most
 *  self time in traced runs of the parent, ranked by their share of
 *  layer time summed over the workloads (see README.md). */
const char *const kTopLayers[] = {
    "FinalUpsample",
    "encoder.stage0.block0.ffn.DWConv",
    "encoder.stage1.block0.ffn.DWConv",
    "encoder.stage0.block0.ffn.gelu",
    "encoder.stage0.block1.ffn.DWConv",
    "decoder.linear3.upsample",
    "OverlapPatchEmbed0_Conv2D",
    "encoder.stage1.block1.ffn.DWConv",
    "decoder.linear2.upsample",
    "encoder.stage1.block0.ffn.gelu",
};

const OpCategory kCategories[] = {
    OpCategory::Conv,       OpCategory::MatMul, OpCategory::Softmax,
    OpCategory::Norm,       OpCategory::Activation,
    OpCategory::Elementwise, OpCategory::Memory,
};

// ---------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "vitdyn_perfbench: %s\nusage: vitdyn_perfbench "
                 "--workload W --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] | --setup-only "
                 "--workload W --seed N\n",
                 why.c_str());
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            o.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = value;
            else if (flag == "--seed")
                o.seed = std::stoull(value);
            else if (flag == "--seconds")
                o.seconds = std::stod(value);
            else if (flag == "--trace")
                o.trace = std::stoi(value) != 0;
            else if (flag == "--trace-out")
                o.traceOut = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::exception &) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/** Metrics in the order added, printed as the result's metrics object. */
class MetricSet
{
  public:
    void add(const std::string &name, double value, const char *unit)
    {
        entries_.push_back({name, value, unit});
    }

    std::string json() const
    {
        std::ostringstream oss;
        oss.precision(17);
        oss << "{";
        for (size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            oss << (i ? ", " : "") << "\"" << e.name
                << "\": {\"value\": " << e.value << ", \"unit\": \""
                << e.unit << "\"}";
        }
        oss << "}";
        return oss.str();
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** Request accounting shared by every workload. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t succeeded = 0; ///< OK and bit-identical to the reference.
    uint64_t shed = 0;      ///< Rejected / expired by admission policy.
    uint64_t failed = 0;    ///< Wrong output, lost or unexpected error.
    std::vector<std::string> errors; ///< First few failure messages.

    void fail(const std::string &why)
    {
        ++failed;
        if (errors.size() < 5)
            errors.push_back(why);
    }
};

// ---------------------------------------------------------------------
// Benchmark spans
// ---------------------------------------------------------------------

/**
 * The benchmark's own spans around each call into the program (submit,
 * response wait, tryInferBatch, set-up phases), kept in memory and
 * merged with the program's trace at exit. Serving spans carry the
 * scheduler's request id, filled in once the response names it.
 */
class BenchSpans
{
  public:
    /** Generator, collector and main lanes in the exported trace. */
    enum Lane { kMain = 9000, kGenerator, kCollector };

    size_t add(const char *name, Lane lane, Clock::time_point start,
               Clock::time_point end, uint64_t request = 0)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        SpanEvent ev;
        ev.name = name;
        ev.category = "bench";
        ev.startNs = nsOf(start);
        ev.durationNs = nsOf(end) - nsOf(start);
        ev.tid = lane;
        ev.requestId = request;
        events_.push_back(std::move(ev));
        return events_.size() - 1;
    }

    void setRequest(size_t index, uint64_t request)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        events_[index].requestId = request;
    }

    std::vector<SpanEvent> events() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return events_;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<SpanEvent> events_;
};

BenchSpans &
benchSpans()
{
    static BenchSpans spans;
    return spans;
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/** One model family made serving-ready. */
struct Served
{
    FamilySpec spec;
    AccuracyResourceLut lut;
    std::unique_ptr<DrtEngine> engine;
};

struct Setup
{
    std::vector<Served> families;
    double sweepS = 0.0;
    double engineS = 0.0;
    double totalS = 0.0; ///< Process start to serving-ready.
};

std::vector<std::string>
familiesOf(const std::string &workload)
{
    if (workload == "frontier_closed")
        return {kFrontierFamilies[0], kFrontierFamilies[1]};
    return {kServeFamily};
}

/** Sweep + LUT + engine construction (lint gate, prewarm, autotune)
 *  with the library's default engine options. */
Setup
setUp(const std::string &workload, Clock::time_point process_start)
{
    Setup setup;
    for (const std::string &name : familiesOf(workload)) {
        Served served{familySpec(name), {}, nullptr};
        const auto t0 = Clock::now();
        served.lut = sweepLut(served.spec);
        const auto t1 = Clock::now();
        served.engine = std::make_unique<DrtEngine>(
            served.spec.family, served.spec.seg, served.spec.swin,
            served.lut, kWeightSeed);
        const auto t2 = Clock::now();
        benchSpans().add("bench.setup.sweep", BenchSpans::kMain, t0, t1);
        benchSpans().add("bench.setup.engine", BenchSpans::kMain, t1, t2);
        setup.sweepS += msBetween(t0, t1) / 1000.0;
        setup.engineS += msBetween(t1, t2) / 1000.0;
        setup.families.push_back(std::move(served));
    }
    setup.totalS = msBetween(process_start, Clock::now()) / 1000.0;
    return setup;
}

// ---------------------------------------------------------------------
// Per-request observations
// ---------------------------------------------------------------------

/** What one OK completion contributes to the engine/tensor/pool
 *  layer metrics. */
struct EngineSample
{
    std::string family;
    std::string config;
    double frameMs = 0.0; ///< Engine time of this image.
    LatencyBreakdown breakdown;
};

/** Everything one measured phase produced. */
struct PhaseResult
{
    std::vector<double> latency;         ///< OK completions (ms).
    std::vector<double> criticalLatency; ///< OK Critical ones (ms).
    std::vector<double> accuracy;        ///< OK completions.
    uint64_t goodput = 0; ///< Correct, OK and within deadline.
    double wallS = 0.0;
    double peakRssMb = 0.0;
    bool rssReset = false; ///< The peak-RSS mark was reset at the start.
    Tally tally;
    std::vector<EngineSample> engine;

    // serve_steady only.
    std::vector<double> lateMs;
    std::vector<double> submitUs;
    std::vector<double> queueMs;
    size_t queueDepthMax = 0;
    std::vector<double> batchSize;
    uint64_t downgraded = 0, rejected = 0, expired = 0;
    double costScaleFinal = 0.0;

    double throughputPerS() const
    {
        return wallS > 0.0 ? static_cast<double>(latency.size()) / wallS
                           : 0.0;
    }
};

// ---------------------------------------------------------------------
// Open loop through ServeScheduler
// ---------------------------------------------------------------------

std::vector<Tenant>
makeTenants(const ServeWorkload &w, const AccuracyResourceLut &lut)
{
    const std::vector<LutEntry> &entries = lut.entries();
    std::vector<Tenant> tenants(kTenants);
    for (size_t t = 0; t < kTenants; ++t) {
        Tenant &tenant = tenants[t];
        tenant.cls = static_cast<ServeClass>(t % kServeClasses);
        tenant.budget = entries[t % entries.size()].resourceCost;
        tenant.deadlineMs = w.deadlineMs[static_cast<size_t>(tenant.cls)];
    }
    return tenants;
}

/** One submitted request, written by the generator and read by the
 *  collector once published. */
struct Slot
{
    std::future<ServeResponse> future;
    Clock::time_point due;
    Clock::time_point sent;
    size_t submitSpan = 0;
};

PhaseResult
runOpenLoop(const ServeWorkload &w, Served &served,
            const std::vector<Arrival> &schedule,
            const std::vector<Tenant> &tenants,
            const std::vector<Tensor> &pool, const ReferenceTable &refs,
            bool traced)
{
    ServeSchedulerOptions options;
    options.queueCapacity = w.queueCapacity;
    options.maxBatch = w.maxBatch;
    options.initialCostScale = w.initialCostScale;
    ServeScheduler scheduler(*served.engine, options);

    PhaseResult r;
    std::vector<Slot> slots(schedule.size());
    std::mutex mutex;
    std::condition_variable published_cv;
    size_t published = 0; // guarded by mutex

    // Collector: waits for each response in submission order, checks
    // its output and records it. Latency comes from the scheduler's
    // admission-to-completion time plus the send delay, so waiting in
    // order never inflates it.
    std::thread collector([&] {
        for (size_t i = 0; i < slots.size(); ++i) {
            {
                std::unique_lock<std::mutex> lock(mutex);
                published_cv.wait(lock, [&] { return published > i; });
            }
            Slot &slot = slots[i];
            const auto wait_start = Clock::now();
            ServeResponse response = slot.future.get();
            const auto wait_end = Clock::now();
            if (traced) {
                benchSpans().add("bench.response_wait",
                                 BenchSpans::kCollector, wait_start,
                                 wait_end, response.id);
                benchSpans().setRequest(slot.submitSpan, response.id);
            }
            const Arrival &a = schedule[i];
            const Tenant &tenant = tenants[a.tenant];
            Tally &tally = r.tally;
            if (!response.status.isOk()) {
                const StatusCode code = response.status.code();
                if (code == StatusCode::Rejected)
                    ++r.rejected, ++tally.shed;
                else if (code == StatusCode::DeadlineExceeded)
                    ++r.expired, ++tally.shed;
                else
                    tally.fail("request " + std::to_string(i) + ": " +
                               response.status.message());
                continue;
            }
            const DrtResult &result = response.result;
            const Status verdict =
                refs.check(a.image, result.configLabel, result.output);
            if (!verdict) {
                tally.fail("request " + std::to_string(i) + ": " +
                           verdict.message());
                continue;
            }
            ++tally.succeeded;
            const double latency =
                msBetween(slot.due, slot.sent) + response.totalMs;
            r.latency.push_back(latency);
            if (tenant.cls == ServeClass::Critical)
                r.criticalLatency.push_back(latency);
            r.accuracy.push_back(result.accuracyEstimate);
            if (tenant.deadlineMs <= 0.0 || latency <= tenant.deadlineMs)
                ++r.goodput;
            if (response.downgraded)
                ++r.downgraded;
            r.queueMs.push_back(response.breakdown.queueMs);
            r.batchSize.push_back(static_cast<double>(response.batchSize));
            r.engine.push_back({served.spec.name, result.configLabel,
                                response.breakdown.engineMs,
                                response.breakdown});
        }
    });

    // Generator: the whole load from one thread, each request sent at
    // its due time (immediately when running late).
    r.rssReset = resetPeakRss();
    if (traced)
        Tracer::instance().setEnabled(true);
    const auto start = Clock::now();
    r.lateMs.reserve(schedule.size());
    r.submitUs.reserve(schedule.size());
    for (size_t i = 0; i < schedule.size(); ++i) {
        const Arrival &a = schedule[i];
        const Tenant &tenant = tenants[a.tenant];
        Slot &slot = slots[i];
        slot.due = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   a.dueMs));
        std::this_thread::sleep_until(slot.due);
        r.queueDepthMax = std::max(r.queueDepthMax, scheduler.queueDepth());
        ServeRequest request;
        request.image = pool[a.image];
        request.budget = tenant.budget;
        request.priority = tenant.cls;
        if (tenant.deadlineMs > 0.0)
            request.deadline = deadlineAfterMs(tenant.deadlineMs, slot.due);
        slot.sent = Clock::now();
        slot.future = scheduler.submit(std::move(request));
        const auto submitted = Clock::now();
        r.lateMs.push_back(msBetween(slot.due, slot.sent));
        r.submitUs.push_back(msBetween(slot.sent, submitted) * 1000.0);
        if (traced)
            slot.submitSpan = benchSpans().add(
                "bench.submit", BenchSpans::kGenerator, slot.sent,
                submitted);
        {
            std::lock_guard<std::mutex> lock(mutex);
            published = i + 1;
        }
        published_cv.notify_one();
    }
    collector.join();
    r.wallS = msBetween(start, Clock::now()) / 1000.0;
    if (traced)
        Tracer::instance().setEnabled(false);
    r.peakRssMb = peakRssMb();
    r.costScaleFinal = scheduler.costScale();
    scheduler.shutdown(true);
    r.tally.attempted = schedule.size();

    // Every submitted request must have resolved exactly once.
    const ServeScheduler::Stats stats = scheduler.stats();
    const uint64_t resolved =
        r.tally.succeeded + r.tally.shed + r.tally.failed;
    if (stats.submitted != schedule.size() || resolved != schedule.size())
        r.tally.fail("lost responses: " + std::to_string(resolved) +
                     " resolved, " + std::to_string(stats.submitted) +
                     " submitted of " + std::to_string(schedule.size()));
    return r;
}

// ---------------------------------------------------------------------
// Closed loop over every frontier path
// ---------------------------------------------------------------------

struct PathRef
{
    size_t family;
    size_t entry;
};

PhaseResult
runClosedLoop(std::vector<Served> &families,
              const std::vector<std::vector<Tensor>> &pools,
              const std::vector<ReferenceTable> &refs, uint64_t seed,
              double seconds, bool traced)
{
    std::vector<PathRef> paths;
    for (size_t f = 0; f < families.size(); ++f)
        for (size_t e = 0; e < families[f].lut.entries().size(); ++e)
            paths.push_back({f, e});

    // Single-image batches, built once so the loop copies nothing.
    std::vector<std::vector<std::vector<Tensor>>> batches(pools.size());
    for (size_t f = 0; f < pools.size(); ++f)
        for (const Tensor &image : pools[f])
            batches[f].push_back({image});

    PhaseResult r;
    Rng rng(seed * 0x94d049bb133111ebULL + 0xc105edULL);
    std::vector<size_t> order(paths.size());
    size_t cursor = order.size();
    uint64_t next_id = 1;

    r.rssReset = resetPeakRss();
    if (traced)
        Tracer::instance().setEnabled(true);
    const auto start = Clock::now();
    const auto stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    while (Clock::now() < stop) {
        if (cursor == order.size()) {
            // A fresh seeded permutation of every path per cycle, so
            // paths are visited equally often in an unpredictable order.
            for (size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            for (size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1],
                          order[static_cast<size_t>(rng.uniformInt(
                              0, static_cast<int64_t>(i) - 1))]);
            cursor = 0;
        }
        const PathRef path = paths[order[cursor++]];
        Served &served = families[path.family];
        const LutEntry &entry = served.lut.entries()[path.entry];
        const size_t image = static_cast<size_t>(rng.uniformInt(
            0, static_cast<int64_t>(pools[path.family].size()) - 1));

        RequestContext context(next_id++,
                               static_cast<int>(ServeClass::Critical));
        std::vector<RequestContext *> contexts = {&context};
        const auto t0 = Clock::now();
        std::vector<Result<DrtResult>> results =
            served.engine->tryInferBatch(batches[path.family][image],
                                         entry.resourceCost, {}, contexts);
        const auto t1 = Clock::now();
        if (traced)
            benchSpans().add("bench.try_infer_batch", BenchSpans::kMain, t0,
                             t1, context.id());

        ++r.tally.attempted;
        const std::string where = served.spec.name + "." +
                                  entry.config.label + " image " +
                                  std::to_string(image);
        if (results.size() != 1 || !results[0].isOk()) {
            r.tally.fail(where + ": " +
                         (results.empty() ? std::string("no result")
                                          : results[0].status().message()));
            continue;
        }
        const DrtResult &result = results[0].value();
        Status verdict =
            result.configLabel == entry.config.label
                ? refs[path.family].check(image, result.configLabel,
                                          result.output)
                : Status::error("ran '" + result.configLabel + "'");
        if (!verdict) {
            r.tally.fail(where + ": " + verdict.message());
            continue;
        }
        ++r.tally.succeeded;
        const double ms = msBetween(t0, t1);
        r.latency.push_back(ms);
        r.criticalLatency.push_back(ms);
        r.accuracy.push_back(result.accuracyEstimate);
        ++r.goodput;
        r.engine.push_back({served.spec.name, entry.config.label, ms,
                            context.finishBreakdown()});
    }
    r.wallS = msBetween(start, Clock::now()) / 1000.0;
    if (traced)
        Tracer::instance().setEnabled(false);
    r.peakRssMb = peakRssMb();
    return r;
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

double
shareOf(uint64_t part, uint64_t whole)
{
    return whole ? static_cast<double>(part) / static_cast<double>(whole)
                 : 0.0;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

std::string
describe(const char *name, const Tail &t)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s = %.4f ms: p%.2f of %zu samples, %zu beyond", name,
                  t.value, t.percentile, t.samples, t.beyond);
    return buf;
}

void
endToEndMetrics(const PhaseResult &r, double setup_s, MetricSet &m)
{
    const Tail all = tailOf(r.latency);
    const Tail critical = tailOf(r.criticalLatency);
    m.add("setup_s", setup_s, "s");
    m.add("latency_ms_p50", median(r.latency), "ms");
    m.add("latency_ms_tail", all.value, "ms");
    m.add("critical_latency_ms_tail", critical.value, "ms");
    m.add("throughput_per_s", r.throughputPerS(), "1/s");
    m.add("goodput_share", shareOf(r.goodput, r.tally.attempted), "share");
    m.add("served_accuracy_mean", mean(r.accuracy), "share");
    m.add("peak_rss_mb", r.peakRssMb, "MiB");
    std::printf("%s\n%s\n", describe("latency_ms_tail", all).c_str(),
                describe("critical_latency_ms_tail", critical).c_str());
}

/** Per-(family, config) frame times, keyed "family.config". */
std::map<std::string, std::vector<double>>
frameTimes(const PhaseResult &r)
{
    std::map<std::string, std::vector<double>> by_path;
    for (const EngineSample &s : r.engine)
        by_path[s.family + "." + s.config].push_back(s.frameMs);
    return by_path;
}

/** Per-layer self time from the program's layer spans: the executor's
 *  per-layer spans are the leaves of the graph hierarchy (only
 *  pool.task shards of the same layer nest inside), so a layer's self
 *  time is its span duration. */
std::map<std::string, std::vector<double>>
layerTimes(const std::vector<SpanEvent> &events)
{
    std::map<std::string, std::vector<double>> by_layer;
    for (const SpanEvent &ev : events) {
        if (ev.instant)
            continue;
        bool is_layer = false;
        for (size_t c = 0; c < kOpCategories; ++c)
            is_layer = is_layer ||
                       ev.category ==
                           opCategoryName(static_cast<OpCategory>(c));
        if (is_layer)
            by_layer[ev.name].push_back(static_cast<double>(ev.durationNs) /
                                        1e6);
    }
    return by_layer;
}

void
perLayerMetrics(const PhaseResult &traced, const PhaseResult &untraced,
                const Setup &setup, const std::vector<SpanEvent> &spans,
                MetricSet &m)
{
    // serve
    m.add("serve.submit_us_p50", median(traced.submitUs), "us");
    m.add("serve.queue_ms_p50", median(traced.queueMs), "ms");
    m.add("serve.queue_ms_tail", tailOf(traced.queueMs).value, "ms");
    m.add("serve.queue_depth_max",
          static_cast<double>(traced.queueDepthMax), "count");
    m.add("serve.batch_size_mean", mean(traced.batchSize), "count");
    const uint64_t n = traced.tally.attempted;
    m.add("serve.downgrade_share", shareOf(traced.downgraded, n), "share");
    m.add("serve.reject_share", shareOf(traced.rejected, n), "share");
    m.add("serve.expire_share", shareOf(traced.expired, n), "share");
    m.add("serve.cost_scale_final", traced.costScaleFinal, "ms/cost");

    // engine + graph, per frontier path of every family
    const auto frames = frameTimes(traced);
    std::vector<double> overhead, kernel, pool_wait;
    std::array<std::vector<double>, kOpCategories> stage;
    for (const EngineSample &s : traced.engine) {
        overhead.push_back(s.breakdown.engineMs - s.breakdown.kernelMs);
        kernel.push_back(s.breakdown.kernelMs);
        pool_wait.push_back(s.breakdown.poolWaitMs);
        for (OpCategory cat : kCategories)
            stage[static_cast<size_t>(cat)].push_back(
                s.breakdown.stageMs[static_cast<size_t>(cat)]);
    }
    for (const char *family : kAllFamilies) {
        const Served *served = nullptr;
        for (const Served &s : setup.families)
            if (s.spec.name == family)
                served = &s;
        const AccuracyResourceLut lut =
            served ? served->lut : sweepLut(familySpec(family));
        for (size_t i = 0; i < lut.entries().size(); ++i) {
            const LutEntry &entry = lut.entries()[i];
            const std::string key =
                std::string(family) + "." + entry.config.label;
            const auto it = frames.find(key);
            const double frame_ms =
                it == frames.end() ? 0.0 : median(it->second);
            m.add("engine.frame_ms." + key, frame_ms, "ms");
            m.add("engine.cost_residual." + key,
                  entry.resourceCost > 0.0 ? frame_ms / entry.resourceCost
                                           : 0.0,
                  "ms/cost");
            double peak_live = 0.0, certified = 0.0;
            if (served) {
                peak_live = static_cast<double>(
                                served->engine->pathExecutor(i)
                                    .lastRunStats()
                                    .peakLiveBytes) /
                            (1024.0 * 1024.0);
                certified =
                    static_cast<double>(
                        served->engine->certifiedPeakBytes(i)) /
                    (1024.0 * 1024.0);
            }
            m.add("graph.peak_live_mb." + key, peak_live, "MiB");
            m.add("graph.certified_peak_mb." + key, certified, "MiB");
        }
    }
    m.add("engine.overhead_ms_p50", median(overhead), "ms");
    m.add("setup.sweep_s", setup.sweepS, "s");
    m.add("setup.engine_s", setup.engineS, "s");
    m.add("graph.kernel_ms_p50", median(kernel), "ms");
    m.add("graph.weights_resident_mb",
          static_cast<double>(WeightStore::instance().stats().bytes) /
              (1024.0 * 1024.0),
          "MiB");

    // tensor
    for (OpCategory cat : kCategories)
        m.add(std::string("tensor.") + opCategoryName(cat) + "_ms_p50",
              median(stage[static_cast<size_t>(cat)]), "ms");
    const auto layers = layerTimes(spans);
    for (const char *name : kTopLayers) {
        const auto it = layers.find(name);
        m.add(std::string("layer.") + name + "_ms",
              it == layers.end() ? 0.0 : median(it->second), "ms");
    }
    m.add("tensor.autotune_measurements",
          static_cast<double>(
              MetricsRegistry::instance().snapshot().counterValue(
                  "autotune.measurements")),
          "count");

    // pool
    m.add("pool.wait_ms_p50", median(pool_wait), "ms");

    // the benchmark's own generator and tracer
    m.add("gen.late_ms_p99", percentile(traced.lateMs, 99.0), "ms");
    m.add("gen.late_ms_max",
          traced.lateMs.empty()
              ? 0.0
              : *std::max_element(traced.lateMs.begin(),
                                  traced.lateMs.end()),
          "ms");
    m.add("trace.overhead_latency_ms_p50",
          median(traced.latency) - median(untraced.latency),
          "ms");
    m.add("trace.overhead_throughput_per_s",
          traced.throughputPerS() - untraced.throughputPerS(), "1/s");
    m.add("trace.dropped_spans",
          static_cast<double>(Tracer::instance().dropped()), "count");
}

/** Layer self-time ranking of a traced run (the kTopLayers source). */
void
printLayerRanking(const std::vector<SpanEvent> &spans)
{
    std::vector<std::pair<double, std::string>> totals;
    for (const auto &[name, ms] : layerTimes(spans)) {
        double sum = 0.0;
        for (double v : ms)
            sum += v;
        totals.push_back({sum, name});
    }
    std::sort(totals.rbegin(), totals.rend());
    std::printf("layer self time ranking (top 15 of %zu):\n", totals.size());
    for (size_t i = 0; i < totals.size() && i < 15; ++i)
        std::printf("  %-32s %10.3f ms\n", totals[i].second.c_str(),
                    totals[i].first);
}

/**
 * The paper's Fig 3/4 characterization from measurement: per path
 * graph, the measured share of kernel time per OpCategory beside the
 * GPU latency model's share and the FLOP share of the same graph.
 */
void
printCharacterization(const std::vector<Served> &families,
                      const PhaseResult &r)
{
    GpuLatencyModel gpu;
    std::printf("measured vs modelled OpCategory shares "
                "(measured kernel time | GpuLatencyModel | FLOPs), %%\n");
    std::printf("%-16s", "path");
    for (OpCategory cat : kCategories)
        std::printf(" %17s", opCategoryName(cat));
    std::printf("\n");
    for (const Served &served : families) {
        for (size_t i = 0; i < served.lut.entries().size(); ++i) {
            const LutEntry &entry = served.lut.entries()[i];
            std::array<double, kOpCategories> measured{}, modelled{},
                flops{};
            for (const EngineSample &s : r.engine)
                if (s.family == served.spec.name &&
                    s.config == entry.config.label)
                    for (size_t c = 0; c < kOpCategories; ++c)
                        measured[c] += s.breakdown.stageMs[c];
            const Graph &graph = served.engine->pathGraph(i);
            for (const Layer &layer : graph.layers()) {
                if (layer.kind == LayerKind::Input || layer.bypassed)
                    continue;
                const size_t c = static_cast<size_t>(layer.category());
                modelled[c] += gpu.layerTimeMs(layer, 1);
                flops[c] += static_cast<double>(layer.flops());
            }
            auto total = [](const std::array<double, kOpCategories> &a) {
                double sum = 0.0;
                for (double v : a)
                    sum += v;
                return sum > 0.0 ? sum : 1.0;
            };
            const double tm = total(measured), tg = total(modelled),
                         tf = total(flops);
            const std::string label =
                served.spec.name + "." + entry.config.label;
            std::printf("%-16s", label.c_str());
            for (OpCategory cat : kCategories) {
                const size_t c = static_cast<size_t>(cat);
                std::printf("  %4.1f|%4.1f|%5.1f", 100.0 * measured[c] / tm,
                            100.0 * modelled[c] / tg, 100.0 * flops[c] / tf);
            }
            std::printf("\n");
        }
    }
}

std::string
gitSha()
{
    // The checkout is not a git repository; run.py passes the SHA it
    // finds (or "unknown") through the environment.
    const char *sha = std::getenv("PERFBENCH_GIT_SHA");
    return sha ? sha : "unknown";
}

} // namespace

int
main(int argc, char **argv)
{
    const auto process_start = Clock::now();
    const Options opt = parseOptions(argc, argv);

    const bool serve = opt.workload == "serve_steady";
    if (!serve && opt.workload != "frontier_closed")
        usage("unknown workload '" + opt.workload + "'");

    ThreadPool::instance().resize(kPoolThreads);
    Tracer::instance().setCapacity(size_t{1} << 19);

    Setup setup = setUp(opt.workload, process_start);
    if (opt.setupOnly) {
        std::printf("{\"setup_s\": %.17g, \"sweep_s\": %.17g, "
                    "\"engine_s\": %.17g}\n",
                    setup.totalS, setup.sweepS, setup.engineS);
        return 0;
    }

    // Inputs and reference checksums (not part of set-up time).
    const auto ref_start = Clock::now();
    std::vector<std::vector<Tensor>> pools;
    std::vector<ReferenceTable> refs;
    for (size_t f = 0; f < setup.families.size(); ++f) {
        const Served &served = setup.families[f];
        pools.push_back(makeInputPool(served.spec, kPoolImages,
                                      opt.seed * 31 + f));
        refs.push_back(computeReferences(served.spec, served.lut,
                                         pools.back()));
    }
    benchSpans().add("bench.reference", BenchSpans::kMain, ref_start,
                     Clock::now());

    // Warm-up: every path of every family once, through the engine.
    for (size_t f = 0; f < setup.families.size(); ++f) {
        Served &served = setup.families[f];
        for (const LutEntry &entry : served.lut.entries())
            served.engine->tryInfer(pools[f][0], entry.resourceCost);
    }

    // The measured phases. A traced run measures the same load twice,
    // untraced then traced, so the difference is the tracing overhead.
    const double phase_s =
        opt.trace ? std::min(opt.seconds / 2.0, kMaxTracedPhaseS)
                  : opt.seconds;
    std::vector<PhaseResult> phases;
    std::vector<Arrival> schedule;
    std::vector<Tenant> tenants;
    if (serve) {
        Served &served = setup.families[0];
        tenants = makeTenants(kServeSteady, served.lut);
        schedule = makeSchedule(kServeSteady.ratePerS, opt.seed, phase_s,
                                kTenants, kPoolImages);
        for (int traced = 0; traced <= (opt.trace ? 1 : 0); ++traced)
            phases.push_back(runOpenLoop(kServeSteady, served, schedule,
                                         tenants, pools[0], refs[0],
                                         traced == 1));
    } else {
        for (int traced = 0; traced <= (opt.trace ? 1 : 0); ++traced)
            phases.push_back(runClosedLoop(setup.families, pools, refs,
                                           opt.seed, phase_s, traced == 1));
    }
    const PhaseResult &measured = phases.back();

    // Human-readable report; the JSON result is the last line.
    Tally total;
    for (const PhaseResult &p : phases) {
        total.attempted += p.tally.attempted;
        total.succeeded += p.tally.succeeded;
        total.shed += p.tally.shed;
        total.failed += p.tally.failed;
        for (const std::string &e : p.tally.errors)
            if (total.errors.size() < 5)
                total.errors.push_back(e);
    }
    std::printf("workload %s seed %llu: attempted %llu, succeeded %llu, "
                "shed %llu, failed %llu\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(total.attempted),
                static_cast<unsigned long long>(total.succeeded),
                static_cast<unsigned long long>(total.shed),
                static_cast<unsigned long long>(total.failed));
    for (const std::string &e : total.errors)
        std::printf("  FAILED %s\n", e.c_str());
    if (!serve)
        printCharacterization(setup.families, measured);

    const double late_p99 = percentile(measured.lateMs, 99.0);
    const double late_max =
        measured.lateMs.empty()
            ? 0.0
            : *std::max_element(measured.lateMs.begin(),
                                measured.lateMs.end());
    bool rss_reset = true;
    for (const PhaseResult &p : phases)
        rss_reset = rss_reset && p.rssReset;
    const bool valid = late_p99 <= kMaxLateP99Ms && rss_reset;
    std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %.17g, \"trace\": %d, \"isa\": \"%s\", "
                "\"pool_threads\": %d, \"nproc\": %u, \"git_sha\": \"%s\", "
                "\"schedule_requests\": %zu, \"gen_late_ms_p99\": %.17g, "
                "\"gen_late_ms_max\": %.17g, \"rss_reset\": %s, "
                "\"valid\": %s}}\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, isaName(activeIsa()),
                ThreadPool::instance().threads(),
                std::thread::hardware_concurrency(), gitSha().c_str(),
                schedule.size(), late_p99, late_max,
                rss_reset ? "true" : "false", valid ? "true" : "false");
    if (late_p99 > kMaxLateP99Ms)
        std::printf("INVALID RUN: generator p99 lateness %.3f ms > %.1f ms "
                    "(the generator, not the program, fell behind)\n",
                    late_p99, kMaxLateP99Ms);
    if (!rss_reset)
        std::printf("INVALID RUN: the peak-RSS mark could not be reset, "
                    "so peak_rss_mb includes set-up and warm-up\n");

    MetricSet metrics;
    if (opt.trace) {
        std::vector<SpanEvent> spans = Tracer::instance().events();
        printLayerRanking(spans);
        perLayerMetrics(measured, phases.front(), setup, spans, metrics);
        if (!opt.traceOut.empty()) {
            for (SpanEvent &ev : benchSpans().events())
                spans.push_back(std::move(ev));
            const Status written = writeChromeTrace(spans, opt.traceOut);
            if (!written)
                std::fprintf(stderr, "warn: %s\n",
                             written.message().c_str());
        }
    } else {
        endToEndMetrics(measured, setup.totalS, metrics);
    }

    const bool correct = total.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(total.attempted),
                static_cast<unsigned long long>(total.failed),
                metrics.json().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
