package serve

import (
	"sync/atomic"

	"repro/internal/astopo"
	"repro/internal/serve/metrics"
	"repro/internal/trace"
)

// Cluster hooks (DESIGN.md §12): the seams internal/cluster drives. The
// cluster layer wraps the service's HTTP handler for ownership routing
// and runs the WAL-shipping replication loops; everything it applies or
// snapshots goes through the same walMu checkpoint barrier as local
// ingest, so cluster replication inherits the single-node exactly-once
// guarantees unchanged.

// IngestBatchReplica applies a batch of replicated records — frames
// tailed from a peer's sealed WAL segments. It is IngestBatch minus load
// shedding: replication is how a follower stays warm for takeover, so it
// must not be turned away by a refit backlog (the refit scheduler's own
// queue still bounds refit work; a dropped refit mark is retried by the
// next applied record or the staleness sweep). The records re-enter this
// node's own WAL under the checkpoint barrier, so a promoted follower
// recovers replicated state from its local log exactly like locally
// ingested state.
func (s *Service) IngestBatchReplica(records []trace.Attack, payload func(i int) []byte) (BatchResult, error) {
	res, _, err := s.ingestBatch(records, payload, false)
	return res, err
}

// MetricsRegistry exposes the service's Prometheus registry so the
// cluster layer registers its ddosd_cluster_* instruments into the same
// /metrics exposition.
func (s *Service) MetricsRegistry() *metrics.Registry { return s.tel.reg }

// ObserveStage feeds one externally measured stage duration into the
// ddosd_stage_seconds histograms (the cluster router times its proxy hops
// as StageProxy).
func (s *Service) ObserveStage(stage string, seconds float64) {
	s.tel.observeStage(stage, seconds)
}

// SetClusterInfo installs the /healthz cluster section provider: node
// identity, ring epoch, peer count, replication lag. fn must be safe for
// concurrent use; nil detaches.
func (s *Service) SetClusterInfo(fn func() any) {
	if fn == nil {
		s.clusterInfo.Store((*func() any)(nil))
		return
	}
	s.clusterInfo.Store(&fn)
}

func (s *Service) clusterInfoValue() any {
	fn := s.clusterInfo.Load()
	if fn == nil || *fn == nil {
		return nil
	}
	return (*fn)()
}

// clusterInfoHook is the atomic holder behind SetClusterInfo.
type clusterInfoHook = atomic.Pointer[func() any]

// CheckpointSnapshot forces a durable checkpoint and returns its content:
// the covered WAL cut line and the full per-target store image. This is
// the owner side of the replication catch-up fallback — when a follower's
// cursor points below the oldest retained segment (compaction won the
// race), it installs this image and resumes tailing at CoveredSeq+1.
func (s *Service) CheckpointSnapshot() (coveredSeq uint64, targets []TargetCheckpoint, err error) {
	return s.checkpointWAL()
}

// InstallCheckpoint merges a peer's checkpointed targets into the store
// (keep selects which — the follower keeps only targets it follows for
// that peer), re-queues refits so the registry republishes models for
// them, and checkpoints locally so the installed state is durable before
// the install is acknowledged.
func (s *Service) InstallCheckpoint(targets []TargetCheckpoint, keep func(tc *TargetCheckpoint) bool) (int, error) {
	kept := targets[:0:0]
	for i := range targets {
		if keep == nil || keep(&targets[i]) {
			kept = append(kept, targets[i])
		}
	}
	if len(kept) == 0 {
		return 0, nil
	}
	// Restore holds each shard lock while swapping the target in; the
	// checkpoint barrier below then makes the merged image durable.
	s.store.Restore(kept)
	ases := make([]astopo.AS, len(kept))
	for i := range kept {
		ases[i] = kept[i].AS
	}
	s.requeueReady(ases)
	if s.walRef.Load() != nil {
		if err := s.CheckpointWAL(); err != nil {
			return len(kept), err
		}
	}
	return len(kept), nil
}

// RequeueRefits re-enqueues a refit for every target with enough history
// and waits for the models to publish — the promotion step that makes a
// freshly promoted follower serve /forecast for its newly owned targets
// immediately.
func (s *Service) RequeueRefits() int {
	n := s.requeueReady(s.store.Targets())
	s.sched.Flush()
	return n
}

// requeueReady queues a refit for each target holding at least MinWindow
// records and returns how many it queued. Unlike ingest's marks these
// wait for queue room instead of dropping: restored targets carry no
// unread stamp, so a dropped mark would leave them unpublished until
// their next record.
func (s *Service) requeueReady(targets []astopo.AS) int {
	n := 0
	for _, as := range targets {
		if window, _ := s.store.Window(as); len(window) < s.cfg.MinWindow {
			continue
		}
		if _, ok := s.sched.enqueue(as, true); ok {
			n++
		}
	}
	return n
}
