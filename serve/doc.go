// Package serve implements a multi-tenant plan-serving daemon over the
// heax wire format — the host process of the paper's system view
// (Section 5.2): clients upload their evaluation keys once, ship
// circuit descriptions that are compiled into cached, reusable Plans,
// and then stream ciphertext batches through those plans over a
// framed TCP protocol.
//
// The server is built from five pieces:
//
//   - a tenant key registry (registry.go): a name → uploaded
//     EvaluationKeySet map. Unregistering frees the name; the garbage
//     collector frees the keys once no cached plan or in-flight request
//     holds them, so eviction never pulls keys out from under either;
//   - an LRU-bounded plan cache (cache.go) keyed by (tenant, digest of
//     the canonicalized circuit DAG) — compile once, run many, shared
//     across connections of the same tenant — each plan carrying an
//     EWMA estimate of its per-input-set run time;
//   - weighted-fair admission (admission.go): per-tenant bounded queues
//     drained by a fixed set of executors under stride scheduling, so a
//     TenantPolicy weight buys a proportional share under saturation
//     and an idle tenant's first job dispatches promptly. An executor
//     is a plan run's caller: it decides how many input sets are in
//     flight (the admission window), while the computing is done by it
//     and the one worker pool every plan and kernel in the process
//     shares — admission + GOMAXPROCS − 1 goroutines in all. Overflowing
//     a queue sheds with ErrOverloaded; a client deadline the backlog
//     cannot meet sheds with ErrDeadlineExceeded before queuing;
//   - a retry-dedup cache (dedup.go): runs carry an optional client
//     request id, and a retry of a completed run replays the cached
//     response instead of executing twice;
//   - a framed, length-checked protocol (protocol.go) whose payloads
//     are the internal/ckks stream codecs; malformed frames fail with
//     heax.ErrCorrupt and oversized frames are rejected before
//     allocation. Run and Register frames are streamed: ciphertext
//     batches and key sets are encoded from their polynomials onto the
//     connection and decoded off it into fresh polynomials, so neither
//     side ever holds an encoded copy of a request (a durable server
//     keeps one copy of a key set, for its tenant log).
//
// A run in flight is bound to its connection and its deadline: when
// the client disconnects or the propagated budget expires, the run's
// context is cancelled and the plan executor abandons the remaining
// steps (Plan.RunContext), returning every pooled buffer.
//
// The server is crash-only. Tenant registrations can be made durable
// through the TenantLog seam (WithTenantLog; serve/durable provides a
// snapshot + checksummed-WAL implementation): registrations append to
// the log before they are acknowledged and RestoreTenant replays them
// on the next boot, so a kill -9 loses nothing a client saw succeed.
// Panics in an executor worker, a request handler or a connection are
// recovered into ErrInternal on that one request and counted
// (Stats.PanicsRecovered) rather than crashing the daemon, and
// TenantPolicy.MaxBytes bounds each tenant's server-side footprint
// (uploaded key bytes plus the working sets of queued and executing
// runs), shedding with ErrResourceExhausted before allocation.
//
// Server.Shutdown drains gracefully: listeners close, new work is
// refused with ErrServerDraining, and in-flight runs finish and flush
// their responses before the server stops.
//
// Client is the matching client-side handle — Dial/DialContext with
// per-call deadlines and opt-in idempotent retry (WithRetry);
// cmd/heax-serve wraps Server in a daemon and examples/client
// demonstrates the full register → compile → stream flow against the
// in-process oracle.
package serve
