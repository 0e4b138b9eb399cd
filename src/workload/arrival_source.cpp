#include "workload/arrival_source.h"

#include <algorithm>

#include "util/check.h"

namespace rrs {
namespace workload {

void ArrivalSource::SeekRound(Round r) {
  if (r > request_rounds_) r = request_rounds_;
  RRS_CHECK_GE(r, 0);
  if (r < cursor_) Reset();
  while (cursor_ < r) NextRound();
}

void ArrivalSource::SaveState(snapshot::Writer& w) const {
  w.BeginSection(snapshot::kTagArrivalSource);
  w.PutU64(static_cast<uint64_t>(family()));
  w.PutI64(cursor_);
  SaveBody(w);
  w.EndSection();
}

void ArrivalSource::LoadState(snapshot::Reader& r) {
  r.BeginSection(snapshot::kTagArrivalSource);
  RRS_CHECK_EQ(r.GetU64(), static_cast<uint64_t>(family()))
      << "source state restored into a different generator family";
  const Round cursor = r.GetI64();
  RRS_CHECK_GE(cursor, 0);
  RRS_CHECK_LE(cursor, request_rounds_);
  // Before LoadBody: family state derived from the cursor (batch window
  // starts) and range checks against it read the loaded value.
  cursor_ = cursor;
  LoadBody(r);
  r.EndSection();
}

void ArrivalSource::FinishInit(Round raw_rounds) {
  const Instance& sh = shape();
  const size_t num_colors = sh.num_colors();
  backlog_.assign(num_colors, 0);
  request_rounds_ = 0;
  horizon_ = 0;

  // Per-color sliding D_c-window of (round, count) arrival runs: backlog is
  // the max window sum, exactly Instance's precomputation but fed from the
  // stream.
  std::vector<std::vector<std::pair<Round, uint64_t>>> window(num_colors);
  std::vector<size_t> head(num_colors, 0);
  std::vector<uint64_t> win_sum(num_colors, 0);

  ResetImpl();
  cursor_ = 0;
  for (Round k = 0; k < raw_rounds; ++k) {
    for (const auto& [c, count] : NextRound()) {
      if (count == 0) continue;
      RRS_CHECK_LT(c, num_colors);
      const Round d = sh.delay_bound(c);
      horizon_ = std::max(horizon_, k + d);
      request_rounds_ = k + 1;
      auto& q = window[c];
      size_t& h = head[c];
      while (h < q.size() && q[h].first + d <= k) {
        win_sum[c] -= q[h].second;
        ++h;
      }
      q.emplace_back(k, count);
      win_sum[c] += count;
      if (win_sum[c] > backlog_[c]) {
        RRS_CHECK_LE(win_sum[c], UINT32_MAX);
        backlog_[c] = static_cast<uint32_t>(win_sum[c]);
      }
    }
  }
  Reset();
}

// ---- InstanceSource -------------------------------------------------------

void InstanceSource::Bind(const Instance& instance) {
  instance_ = &instance;
  request_rounds_ = instance.num_request_rounds();
  horizon_ = instance.horizon();
  cursor_ = 0;
}

void InstanceSource::SeekRound(Round r) {
  if (r > request_rounds_) r = request_rounds_;
  RRS_CHECK_GE(r, 0);
  cursor_ = r;
}

std::span<const ArrivalSource::Run> InstanceSource::EmitRound(Round k) {
  runs_.clear();
  auto jobs = instance_->jobs_in_round(k);
  // Coalesce contiguous same-color jobs, preserving within-round job order
  // (Engine's legacy arrival loop, verbatim).
  size_t i = 0;
  while (i < jobs.size()) {
    const ColorId c = jobs[i].color;
    size_t j = i;
    while (j < jobs.size() && jobs[j].color == c) ++j;
    runs_.emplace_back(c, j - i);
    i = j;
  }
  return runs_;
}

std::unique_ptr<ArrivalSource> InstanceSource::Clone() const {
  RRS_CHECK(bound()) << "Clone of an unbound InstanceSource";
  return std::make_unique<InstanceSource>(*instance_);
}

namespace {

// InstanceSource bundled with the Instance it serves.
class OwningInstanceSource final : public InstanceSource {
 public:
  explicit OwningInstanceSource(Instance instance)
      : storage_(std::move(instance)) {
    Bind(storage_);
  }

  std::unique_ptr<ArrivalSource> Clone() const override {
    return std::make_unique<OwningInstanceSource>(storage_);
  }

 private:
  Instance storage_;
};

}  // namespace

std::unique_ptr<ArrivalSource> MakeOwnedInstanceSource(Instance instance) {
  return std::make_unique<OwningInstanceSource>(std::move(instance));
}

Instance Materialize(ArrivalSource& source) {
  const Instance& sh = source.shape();
  InstanceBuilder builder;
  for (ColorId c = 0; c < sh.num_colors(); ++c) {
    builder.AddColor(sh.delay_bound(c), sh.color_name(c), sh.drop_cost(c));
  }
  source.Reset();
  const Round rounds = source.num_request_rounds();
  for (Round k = 0; k < rounds; ++k) {
    for (const auto& [c, count] : source.NextRound()) {
      builder.AddJobs(c, k, count);
    }
  }
  source.Reset();
  return builder.Build();
}

}  // namespace workload
}  // namespace rrs
