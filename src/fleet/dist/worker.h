// The worker side of the distributed fleet: one process hosting one
// fleet::TickCore (fleet/tick_core.h) of live sessions, driven entirely by
// protocol frames on its control socket.
//
// WorkerMain is the whole worker — an event loop that blocks on RecvFrame
// and dispatches: Config builds the core (pooled Engine sessions with a
// registry policy each) and an optional metrics ExportServer;
// AddInstances/AddTenants/AddSources install work; Tick admits waiting
// tenants up to the live cap, steps every live session one round bucket,
// and replies with a TickReport carrying completions, per-tenant SLO
// progress rows, optional per-round trace rows, and — when the controller
// asks — a checkpoint of every still-live tenant; Evict and Restore
// implement the migration, shedding and failover edges on the core's
// checkpoint, evict and restore operations. Shutdown replies with an empty
// Bye and returns.
//
// Determinism: the core is single-threaded and every report's rows are
// sorted by tenant, so a worker's observable behavior is a pure function of
// the frame sequence it receives. Parallelism comes from running several
// worker processes.
//
// Normally entered in a freshly forked child (DistController::Start); tests
// may also run it on a thread in-process against one end of a socketpair —
// it touches no global state.
#pragma once

#include <cstdint>

namespace rrs {
namespace fleet {
namespace dist {

// Runs the worker event loop on `fd` (one end of the controller's
// socketpair) until Shutdown or controller EOF. Returns the process exit
// code (0 on clean shutdown).
int WorkerMain(int fd, uint64_t worker_index);

}  // namespace dist
}  // namespace fleet
}  // namespace rrs
