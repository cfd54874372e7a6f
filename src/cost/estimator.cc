#include "cost/estimator.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "mr/map_output.h"
#include "mr/message.h"

namespace gumbo::cost {

namespace {

constexpr double kMbPerByte = 1.0 / (1024.0 * 1024.0);

}  // namespace

Result<RelationStats> CostEstimator::StatsOf(const std::string& name) {
  if (db_ != nullptr && db_->Contains(name)) {
    return MaterializedStats(name, *db_->Get(name).value());
  }
  if (catalog_ == nullptr) {
    return Status::NotFound("stats for " + name + " (no catalog)");
  }
  return catalog_->Get(name);
}

const RelationStats& CostEstimator::MaterializedStats(const std::string& name,
                                                      const Relation& rel) {
  auto it = stats_memo_.find(name);
  if (it == stats_memo_.end()) {
    RelationStats stats;
    stats.tuples = rel.RepresentedRecords();
    stats.bytes_per_tuple = rel.bytes_per_tuple();
    stats.regime = ClassifyKeySkew(rel);
    it = stats_memo_.emplace(name, stats).first;
  }
  return it->second;
}

CostEstimator::SampledOutput CostEstimator::SampleMapOutput(
    const mr::JobSpec& job, size_t input_index, const Relation& rel) {
  const mr::JobInput& input = job.inputs[input_index];
  std::tuple<std::string, bool, std::string> key;
  if (!input.signature.empty()) {
    key = {input.dataset, job.pack_messages, input.signature};
    auto it = sample_memo_.find(key);
    if (it != sample_memo_.end()) return it->second;
  }
  const size_t n = rel.size();
  const size_t s = std::min(sample_size_, n);
  auto mapper = job.mapper_factory();
  mr::MapOutputBuffer emitter;
  for (size_t k = 0; k < s; ++k) {
    size_t idx = k * n / s;  // stride sample, deterministic
    mapper->Map(input_index, rel.view(idx), static_cast<uint64_t>(idx),
                &emitter);
  }
  // Account packing the way the shuffle would within a task: the flat
  // buffer already grouped by key, so this is a read-off, not a regroup.
  SampledOutput out;
  emitter.AccountWire(job.pack_messages, &out.wire_bytes, &out.records);
  if (!input.signature.empty()) sample_memo_.emplace(std::move(key), out);
  return out;
}

Result<MapPartition> CostEstimator::EstimateInput(const mr::JobSpec& job,
                                                  size_t input_index,
                                                  InputEstimateTag* tag) {
  const mr::JobInput& input = job.inputs[input_index];
  MapPartition p;
  tag->dataset = input.dataset;

  // Materialized input: sample the real map function (Gumbo §5.1 opt (3)).
  if (db_ != nullptr && db_->Contains(input.dataset)) {
    const Relation* rel = db_->Get(input.dataset).value();
    tag->channel = Channel::kSampledOutput;
    tag->regime = MaterializedStats(input.dataset, *rel).regime;
    p.input_mb = rel->SizeMb();
    p.num_mappers = std::max(
        1, static_cast<int>(std::ceil(p.input_mb / config_.split_mb)));
    tag->input_mb = p.input_mb;
    size_t n = rel->size();
    if (n == 0 || !job.mapper_factory) return p;
    size_t s = std::min(sample_size_, n);
    const SampledOutput sampled = SampleMapOutput(job, input_index, *rel);
    double records = static_cast<double>(sampled.records);
    double blowup = static_cast<double>(n) / static_cast<double>(s) *
                    rel->representation_scale();
    p.output_mb = sampled.wire_bytes * blowup *
                  job.intermediate_overhead_factor * kMbPerByte *
                  Factor(Channel::kSampledOutput, tag->regime);
    p.metadata_mb = records * blowup *
                    config_.costs.metadata_bytes_per_record * kMbPerByte;
    tag->output_mb = p.output_mb;
    return p;
  }

  // Catalog fallback: structural upper bound via the job-input hints.
  // This is where regime-dependent estimation error lives (the bound is
  // tight only on uniform data), so both N and M take learned factors.
  if (catalog_ == nullptr) {
    return Status::NotFound("input " + input.dataset +
                            " unmaterialized and no stats catalog");
  }
  GUMBO_ASSIGN_OR_RETURN(RelationStats stats, catalog_->Get(input.dataset));
  tag->channel = Channel::kCatalogOutput;
  tag->regime = stats.regime;
  p.input_mb = stats.SizeMb() * Factor(Channel::kCatalogInput, stats.regime);
  p.num_mappers =
      std::max(1, static_cast<int>(std::ceil(p.input_mb / config_.split_mb)));
  double bytes_per_msg = input.hint_bytes_per_message >= 0.0
                             ? input.hint_bytes_per_message
                             : stats.bytes_per_tuple;
  double messages = stats.tuples * input.hint_messages_per_tuple;
  p.output_mb = messages * bytes_per_msg * job.intermediate_overhead_factor *
                kMbPerByte * Factor(Channel::kCatalogOutput, stats.regime);
  p.metadata_mb =
      messages * config_.costs.metadata_bytes_per_record * kMbPerByte;
  tag->input_mb = p.input_mb;
  tag->output_mb = p.output_mb;
  return p;
}

Result<JobEstimate> CostEstimator::EstimateJob(
    const mr::JobSpec& job, double output_mb_upper_bound) {
  JobEstimate est;
  est.partitions.reserve(job.inputs.size());
  est.input_tags.reserve(job.inputs.size());
  double intermediate_mb = 0.0;
  double input_mb = 0.0;
  for (size_t i = 0; i < job.inputs.size(); ++i) {
    InputEstimateTag tag;
    GUMBO_ASSIGN_OR_RETURN(MapPartition p, EstimateInput(job, i, &tag));
    intermediate_mb += p.output_mb;
    input_mb += p.input_mb;
    // The job's bound regime is its most skewed input's regime.
    if (tag.regime > est.bound_regime) est.bound_regime = tag.regime;
    est.partitions.push_back(p);
    est.input_tags.push_back(std::move(tag));
  }
  est.bound_defaulted = output_mb_upper_bound < 0.0;
  est.output_mb = est.bound_defaulted
                      ? input_mb * Factor(Channel::kOutputBound,
                                          est.bound_regime)  // paper's bound
                      : output_mb_upper_bound;
  switch (job.reducer_allocation) {
    case mr::ReducerAllocation::kByIntermediateSize:
      est.num_reducers = std::max(
          1, static_cast<int>(std::ceil(intermediate_mb /
                                        config_.mb_per_reducer)));
      break;
    case mr::ReducerAllocation::kByMapInputSize:
      est.num_reducers = std::max(
          1, static_cast<int>(
                 std::ceil(input_mb / (4.0 * config_.mb_per_reducer))));
      break;
    case mr::ReducerAllocation::kFixed:
      est.num_reducers = std::max(1, job.fixed_num_reducers);
      break;
  }
  est.cost = JobCost(config_.costs, variant_, est.partitions, est.output_mb,
                     est.num_reducers);
  return est;
}

}  // namespace gumbo::cost
