#include "perfbench.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "engine/engine.hh"
#include "graph/executor.hh"
#include "graph/weight_store.hh"
#include "profile/gpu_model.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/synthetic.hh"

namespace perfbench
{

using namespace vitdyn;

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    if (values.size() % 2 == 1)
        return values[mid];
    const double upper = values[mid];
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    return 0.5 * (lower + upper);
}

Tail
tailOf(std::vector<double> values)
{
    Tail tail;
    tail.samples = values.size();
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    if (n <= kTailBeyond) {
        tail.value = values.back();
        tail.percentile = 100.0;
        return tail;
    }
    const size_t rank = n - kTailBeyond; // 1-based
    tail.value = values[rank - 1];
    tail.percentile = 100.0 * static_cast<double>(rank) /
                      static_cast<double>(n);
    // Ties with the tail value are not "beyond" it.
    tail.beyond = static_cast<size_t>(
        values.end() -
        std::upper_bound(values.begin(), values.end(), tail.value));
    return tail;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    const double rank = std::clamp(std::ceil(q / 100.0 * n), 1.0, n);
    return values[static_cast<size_t>(rank) - 1];
}

namespace
{

/** The serving soak's degradation ladder (full depth, two
 *  decoder-channel cuts, two depth cuts). Both families' decoder fuse
 *  layer reads 4 x 32 = 128 channels, so the labels hold for both. */
std::vector<PruneConfig>
ladder()
{
    return {
        {"full", {2, 2, 2, 2}, 0, 0, 0, 0, 0},
        {"fuse96", {2, 2, 2, 2}, 96, 0, 0, 0, 0},
        {"fuse64", {2, 2, 2, 2}, 64, 0, 0, 0, 0},
        {"slim", {1, 2, 2, 2}, 64, 0, 0, 0, 0},
        {"tiny", {1, 1, 1, 1}, 48, 0, 0, 0, 0},
    };
}

SegformerConfig
segformerBase(int64_t side)
{
    // The serving soak's scaled-down SegFormer
    // (examples/drt_video_pipeline.cpp).
    SegformerConfig c;
    c.name = "segformer_bench" + std::to_string(side);
    c.imageH = c.imageW = side;
    c.numClasses = 8;
    c.embedDims = {8, 16, 24, 32};
    c.depths = {2, 2, 2, 2};
    c.numHeads = {1, 2, 3, 4};
    c.decoderDim = 32;
    return c;
}

SwinConfig
swinBase()
{
    SwinConfig c;
    c.name = "swin_bench64";
    c.imageH = c.imageW = 64;
    c.numClasses = 8;
    c.embedDim = 16;
    c.depths = {2, 2, 2, 2};
    c.numHeads = {1, 2, 4, 8};
    c.window = 4;
    c.decoderChannels = 32;
    c.ppmScales = {1, 2, 3, 6};
    return c;
}

} // namespace

FamilySpec
familySpec(const std::string &name)
{
    FamilySpec spec;
    spec.name = name;
    if (name == "seg64" || name == "seg128") {
        spec.family = ModelFamily::Segformer;
        spec.seg = segformerBase(name == "seg64" ? 64 : 128);
        spec.candidates = ladder();
        spec.accuracy = PrunedModelKind::SegformerB2Ade;
        spec.imageH = spec.seg.imageH;
        spec.imageW = spec.seg.imageW;
        spec.numClasses = spec.seg.numClasses;
    } else if (name == "swin64") {
        spec.family = ModelFamily::Swin;
        spec.swin = swinBase();
        spec.candidates = ladder();
        spec.accuracy = PrunedModelKind::SwinTinyAde;
        spec.imageH = spec.swin.imageH;
        spec.imageW = spec.swin.imageW;
        spec.numClasses = spec.swin.numClasses;
    } else {
        vitdyn_fatal("unknown model family '", name, "'");
    }
    return spec;
}

AccuracyResourceLut
sweepLut(const FamilySpec &spec)
{
    GpuLatencyModel gpu;
    AccuracyModel accuracy(spec.accuracy);
    return AccuracyResourceLut(
        sweepTradeoffs(spec.family, spec.seg, spec.swin, spec.candidates,
                       accuracy,
                       [&](const Graph &g) { return gpu.graphTimeMs(g); }),
        "ms");
}

Graph
buildFullGraph(const FamilySpec &spec)
{
    return spec.family == ModelFamily::Segformer ? buildSegformer(spec.seg)
                                                 : buildSwin(spec.swin);
}

std::vector<Tensor>
makeInputPool(const FamilySpec &spec, size_t count, uint64_t seed)
{
    SyntheticSegmentation scenes(spec.imageH, spec.imageW,
                                 spec.numClasses);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eedULL);
    std::vector<Tensor> pool;
    pool.reserve(count);
    for (size_t i = 0; i < count; ++i)
        pool.push_back(scenes.nextSample(rng).image);
    return pool;
}

std::vector<Arrival>
makeSchedule(double rate_per_s, uint64_t seed, double seconds,
             size_t tenants, size_t pool_size)
{
    vitdyn_assert(rate_per_s > 0.0 && tenants > 0 && pool_size > 0,
                  "degenerate arrival schedule");
    Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 0xa11ULL);

    std::vector<double> instants(
        static_cast<size_t>(std::llround(rate_per_s * seconds)));
    for (double &t : instants)
        t = rng.uniform() * seconds * 1000.0;
    std::sort(instants.begin(), instants.end());

    // Tenants and images are dealt in shuffled rounds, so every run
    // sees the same mix of classes, budgets and inputs.
    auto dealer = [&rng](size_t n) {
        return [&rng, n, deck = std::vector<uint32_t>(),
                next = size_t{0}]() mutable {
            if (next == deck.size()) {
                deck.resize(n);
                for (size_t i = 0; i < n; ++i)
                    deck[i] = static_cast<uint32_t>(i);
                for (size_t i = n; i > 1; --i)
                    std::swap(deck[i - 1],
                              deck[static_cast<size_t>(rng.uniformInt(
                                  0, static_cast<int64_t>(i) - 1))]);
                next = 0;
            }
            return deck[next++];
        };
    };
    auto next_tenant = dealer(tenants);
    auto next_image = dealer(pool_size);

    std::vector<Arrival> schedule;
    schedule.reserve(instants.size());
    for (double t : instants)
        schedule.push_back({t, next_tenant(), next_image()});
    return schedule;
}

uint64_t
outputChecksum(const Tensor &output)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            h ^= (word >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    };
    for (int64_t d : output.shape())
        mix(static_cast<uint64_t>(d));
    const float *data = output.data();
    for (int64_t i = 0; i < output.numel(); ++i) {
        uint32_t bits = 0;
        std::memcpy(&bits, data + i, sizeof bits);
        h ^= bits;
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
ReferenceTable::add(size_t image, const std::string &config, uint64_t sum)
{
    sums_[{image, config}] = sum;
}

Status
ReferenceTable::check(size_t image, const std::string &config,
                      const Tensor &output) const
{
    const auto it = sums_.find({image, config});
    if (it == sums_.end())
        return Status::error("no reference for image " +
                             std::to_string(image) + " on config '" +
                             config + "'");
    const uint64_t got = outputChecksum(output);
    if (got == it->second)
        return Status::ok();
    std::ostringstream oss;
    oss << "output mismatch: image " << image << " on config '" << config
        << "' checksum " << std::hex << got << " != reference "
        << it->second;
    return Status::error(oss.str());
}

ReferenceTable
computeReferences(const FamilySpec &spec, const AccuracyResourceLut &lut,
                  const std::vector<Tensor> &pool)
{
    ReferenceTable table;
    const Graph full = buildFullGraph(spec);
    WeightStore store; // independent of the engine's process-wide store
    for (const LutEntry &entry : lut.entries()) {
        Result<Graph> pruned =
            tryApplyPrune(spec.family, spec.seg, spec.swin, entry.config);
        if (!pruned)
            vitdyn_fatal("reference graph for '", entry.config.label,
                         "': ", pruned.status().message());
        Executor executor(pruned.value(), kWeightSeed, &store);
        registerFullDims(full, executor);
        for (size_t i = 0; i < pool.size(); ++i)
            table.add(i, entry.config.label,
                      outputChecksum(executor.runSimple(pool[i])));
    }
    return table;
}

bool
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return out.good();
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

} // namespace perfbench
