#include "fleet/dist/protocol.h"

namespace rrs {
namespace fleet {
namespace dist {

const char* MsgTypeName(uint64_t type) {
  switch (type) {
    case kMsgHello: return "Hello";
    case kMsgConfig: return "Config";
    case kMsgConfigAck: return "ConfigAck";
    case kMsgAddInstances: return "AddInstances";
    case kMsgAddTenants: return "AddTenants";
    case kMsgTick: return "Tick";
    case kMsgTickDone: return "TickDone";
    case kMsgEvictTenant: return "EvictTenant";
    case kMsgTenantEvicted: return "TenantEvicted";
    case kMsgRestoreTenant: return "RestoreTenant";
    case kMsgRestoreAck: return "RestoreAck";
    case kMsgShutdown: return "Shutdown";
    case kMsgBye: return "Bye";
    case kMsgAddSources: return "AddSources";
    default: return "<unknown>";
  }
}

EngineOptions WireOptions::ToEngineOptions() const {
  EngineOptions options;
  options.num_resources = num_resources;
  options.mini_rounds_per_round = static_cast<int>(mini_rounds_per_round);
  options.cost_model.delta = delta;
  return options;
}

WireOptions WireOptions::From(const EngineOptions& options) {
  WireOptions wire;
  wire.num_resources = options.num_resources;
  wire.mini_rounds_per_round = options.mini_rounds_per_round;
  wire.delta = options.cost_model.delta;
  return wire;
}

WireInstance WireInstance::From(const Instance& instance) {
  WireInstance wire;
  for (ColorId c = 0; c < instance.num_colors(); ++c) {
    wire.colors.push_back({instance.delay_bound(c), instance.drop_cost(c),
                           instance.color_name(c)});
  }
  for (const Job& job : instance.jobs()) {
    if (wire.jobs.empty() || wire.jobs.back().color != job.color ||
        wire.jobs.back().arrival != job.arrival) {
      wire.jobs.push_back({job.color, job.arrival, 0});
    }
    ++wire.jobs.back().count;
  }
  return wire;
}

Instance WireInstance::Build() const {
  InstanceBuilder builder;
  for (const WireColor& color : colors) {
    builder.AddColor(color.delay_bound, color.name, color.drop_cost);
  }
  for (const JobRun& run : jobs) {
    builder.AddJobs(run.color, run.arrival, run.count);
  }
  return builder.Build();
}

}  // namespace dist
}  // namespace fleet
}  // namespace rrs
