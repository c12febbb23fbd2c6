/**
 * @file
 * Building blocks of the vitdyn benchmark (see perfbench/README.md):
 * the model families it serves, the seeded inputs and arrival
 * schedules, the output-correctness gate, and the sample statistics
 * every metric is reported with. Everything here is deterministic in
 * its seed so the self-tests can pin it down; the timed workloads
 * live in main.cc.
 */

#ifndef VITDYN_PERFBENCH_PERFBENCH_HH
#define VITDYN_PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/lut.hh"
#include "models/segformer.hh"
#include "models/swin.hh"
#include "resilience/accuracy_model.hh"
#include "resilience/sweep.hh"
#include "serve/serve.hh"
#include "tensor/tensor.hh"
#include "util/status.hh"

namespace perfbench
{

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/** Median (mean of the two middle values for an even count); 0 when
 *  empty. */
double median(std::vector<double> values);

/**
 * The highest percentile of a sample that still has at least
 * kTailBeyond samples strictly above it: with n sorted samples that is
 * the value at rank n - kTailBeyond (1-based), the
 * 100 * (n - kTailBeyond) / n-th percentile. Samples too small to
 * support any such percentile report their maximum with beyond = 0.
 */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0; ///< In [0, 100].
    size_t beyond = 0;       ///< Samples strictly above `value`.
    size_t samples = 0;
};

constexpr size_t kTailBeyond = 10;

Tail tailOf(std::vector<double> values);

/** Nearest-rank @p q-th percentile (q in (0, 100]): the smallest
 *  sample with at least q% of the samples at or below it; 0 when
 *  empty. */
double percentile(std::vector<double> values, double q);

// ---------------------------------------------------------------------
// Model families
// ---------------------------------------------------------------------

/** One servable model: a base config, its prune candidates (the
 *  alternative execution paths), and the accuracy model. */
struct FamilySpec
{
    std::string name; ///< "seg64", "seg128" or "swin64".
    vitdyn::ModelFamily family = vitdyn::ModelFamily::Segformer;
    vitdyn::SegformerConfig seg;
    vitdyn::SwinConfig swin;
    std::vector<vitdyn::PruneConfig> candidates;
    vitdyn::PrunedModelKind accuracy =
        vitdyn::PrunedModelKind::SegformerB2Ade;
    int64_t imageH = 0, imageW = 0, numClasses = 0;
};

/** The benchmark's families by name; aborts on an unknown name. */
FamilySpec familySpec(const std::string &name);

/** Weight-synthesis seed shared by every engine and reference
 *  executor (pinned: weights never depend on --seed). */
constexpr uint64_t kWeightSeed = 7;

/** Offline sweep of the candidates against the GPU latency model,
 *  Pareto-filtered into the serving LUT (unit "ms", modelled). */
vitdyn::AccuracyResourceLut sweepLut(const FamilySpec &spec);

/** The unpruned graph of @p spec (the shared weight dimensions). */
vitdyn::Graph buildFullGraph(const FamilySpec &spec);

// ---------------------------------------------------------------------
// Inputs and arrival schedules
// ---------------------------------------------------------------------

/** @p count synthetic scenes for @p spec, deterministic in @p seed. */
std::vector<vitdyn::Tensor> makeInputPool(const FamilySpec &spec,
                                          size_t count, uint64_t seed);

/** One logical tenant of an open-loop workload. */
struct Tenant
{
    vitdyn::ServeClass cls = vitdyn::ServeClass::Interactive;
    double budget = 0.0;     ///< LUT-native budget.
    double deadlineMs = 0.0; ///< From the due time; 0 = none.
};

/** One scheduled request. */
struct Arrival
{
    double dueMs = 0.0; ///< Offset from the start of the schedule.
    uint32_t tenant = 0;
    uint32_t image = 0; ///< Index into the input pool.
};

/**
 * The Poisson arrivals of one @p seconds window at @p rate_per_s,
 * deterministic in @p seed: round(rate * seconds) instants drawn
 * uniformly over the window (a Poisson process conditioned on its
 * count, so runs of equal length carry equal load), with tenants and
 * pool images dealt in seeded shuffled rounds.
 */
std::vector<Arrival> makeSchedule(double rate_per_s, uint64_t seed,
                                  double seconds, size_t tenants,
                                  size_t pool_size);

// ---------------------------------------------------------------------
// Output-correctness gate
// ---------------------------------------------------------------------

/** 64-bit FNV-1a-style hash of the tensor's shape and of each float's
 *  32-bit pattern: any changed bit changes it (with high probability). */
uint64_t outputChecksum(const vitdyn::Tensor &output);

/**
 * Reference checksums for every (pool image, frontier config) pair,
 * computed once per run by an Executor independent of the engine
 * under test: its own WeightStore, the same weight seed, the pruned
 * graph with registerFullDims. A served output must match the entry
 * of the config label the response reports, bit for bit.
 */
class ReferenceTable
{
  public:
    void add(size_t image, const std::string &config, uint64_t sum);

    /** OK, or an error naming the image, config and both sums. */
    vitdyn::Status check(size_t image, const std::string &config,
                         const vitdyn::Tensor &output) const;

    size_t size() const { return sums_.size(); }

  private:
    std::map<std::pair<size_t, std::string>, uint64_t> sums_;
};

ReferenceTable computeReferences(const FamilySpec &spec,
                                 const vitdyn::AccuracyResourceLut &lut,
                                 const std::vector<vitdyn::Tensor> &pool);

// ---------------------------------------------------------------------
// Process probes
// ---------------------------------------------------------------------

/** Reset the kernel's peak-RSS mark (/proc/self/clear_refs); false
 *  when the kernel refuses. */
bool resetPeakRss();

/** Peak resident set (VmHWM) in MiB; 0 when unavailable. */
double peakRssMb();

} // namespace perfbench

#endif // VITDYN_PERFBENCH_PERFBENCH_HH
