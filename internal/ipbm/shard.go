package ipbm

// shard.go is the served forwarding driver: every port hashes
// an arriving frame (RSS over raw frame bytes) into one of N rx rings,
// and lane i polls ring i of every port, running ingress→TM→egress to
// completion against its own TM queues and packet freelist. A flow maps
// to one ring of one port, the ring is FIFO and has one consumer, so
// per-flow ordering holds by construction while independent flows scale
// across cores — the software analogue of replicating an RMT pipeline
// per hardware lane behind a multi-queue NIC.
// In-situ reconfiguration is hitless here by batch-granular epoch
// pinning: each turn pins the current program version once, processes
// its whole batch (including the TM drain) under it, and unpins — so a
// reconfig storm never blocks a shard, and the version pin/unpin cost
// amortizes over the batch.

import (
	"fmt"
	"strconv"

	"ipsa/internal/health"
	"ipsa/internal/pipeline"
	"ipsa/internal/telemetry"
)

// MaxShards bounds RunSharded's shard count: lane 0 of every striped
// counter belongs to the inline Forward paths, and the stripe sets are
// sized for MaxShards worker lanes above it.
const MaxShards = 63

// DefaultBatch is the frame batch size used when RunSharded (or the
// -batch flag) is given 0: large enough to amortize per-wakeup costs,
// small enough to keep worst-case added latency at microseconds.
const DefaultBatch = 32

// shardSet is the published sharded-mode state, stored behind an atomic
// pointer so scrape-time aggregation and the INT depth source can read it
// without coordination.
type shardSet struct {
	shards []*lane
	batch  int
}

// RunSharded starts the served forwarding mode: every port splits its
// ingress into shards RSS rings, and lane i polls ring i of every port,
// running the full ingress→TM→egress lifecycle against per-shard queues
// and freelists. batch bounds the frames one turn handles (0 =
// DefaultBatch). It may start before a configuration is installed:
// frames arriving earlier count as admission failures. Stop with
// Shutdown.
func (s *Switch) RunSharded(shards, batch int) error {
	if shards < 1 || shards > MaxShards {
		return fmt.Errorf("ipbm: shard count %d outside [1,%d]", shards, MaxShards)
	}
	if batch <= 0 {
		batch = DefaultBatch
	}
	if s.shardsP.Load() != nil {
		return fmt.Errorf("ipbm: sharded mode already running")
	}
	set := &shardSet{batch: batch}
	wake := make([]chan struct{}, shards)
	for i := 0; i < shards; i++ {
		// The lane owns its TM, so every packet of a turn is drained under
		// the turn's pin and none outlives it.
		l := s.newLane(i+1, pipeline.NewTrafficManager(s.ports.Len(), s.opts.QueueDepth), batch)
		label := telemetry.L("shard", strconv.Itoa(i))
		l.idx = i
		l.beat = s.tel.Reg.Counter("ipsa_shard_rx_frames_total", label)
		l.turns = s.tel.Reg.Counter("ipsa_shard_batches_total", label)
		l.fl = s.flows.Lane(i)
		wake[i] = l.wake
		set.shards = append(set.shards, l)
	}
	// A ring holds at least one batch, so a stalled worker's backlog can
	// fill a whole wakeup. A full ring tail-drops at the port (rx_drops) —
	// drop policy stays at the edge, and only that shard's flows pay.
	for i := 0; i < s.ports.Len(); i++ {
		port, _ := s.ports.Port(i)
		for j, q := range port.SplitRx(wake, max(s.opts.QueueDepth, batch)) {
			set.shards[j].rings = append(set.shards[j].rings, q)
		}
	}
	s.shardsP.Store(set)
	for _, l := range set.shards {
		s.spawn(func() { l.serve(batch) })
		// Watchdog lane: a shard is stalled when its wakeup counter freezes
		// while frames sit in its rx rings or TM — the TM-empty guard keeps
		// an idle shard from ever being flagged.
		s.health.AddLane(health.Lane{
			Name:     "shard-" + strconv.Itoa(l.idx),
			Progress: l.turns.Value,
			Pending:  l.queueDepth,
			Series:   "ipsa_shard_rx_frames_total",
			SeriesLabels: []telemetry.Label{
				telemetry.L("shard", strconv.Itoa(l.idx)),
			},
		})
	}
	s.health.Start()
	s.log.Info("sharded forwarding started", "shards", shards, "batch", batch)
	return nil
}

// blockShard is the deliberate-stall test hook: shard i's worker is held
// at the top of its loop until release is called.
func (s *Switch) blockShard(i int) (release func(), err error) {
	set := s.shardsP.Load()
	if set == nil || i < 0 || i >= len(set.shards) {
		return nil, fmt.Errorf("ipbm: no such shard %d", i)
	}
	return set.shards[i].block(), nil
}

// Sharded reports the running shard count (0 when the sharded mode is not
// active) and the configured batch size.
func (s *Switch) Sharded() (shards, batch int) {
	set := s.shardsP.Load()
	if set == nil {
		return 0, 0
	}
	return len(set.shards), set.batch
}

// The TMs are the shard lanes': an inline lane runs its packets to
// completion, so nothing queues outside the sharded mode and every fold
// below reads 0 without it.

// tmDepthSum totals TM occupancy across every shard TM (audit-event
// "packets in flight" source).
func (s *Switch) tmDepthSum() int {
	n := 0
	if set := s.shardsP.Load(); set != nil {
		for _, sh := range set.shards {
			n += sh.tm.DepthSum()
		}
	}
	return n
}

// tmDepthFast is one port's occupancy summed over every shard TM: the INT
// stamper's per-packet queue-depth source, lock-free and approximate
// under concurrency like DepthFast itself.
func (s *Switch) tmDepthFast(port int) int {
	n := 0
	if set := s.shardsP.Load(); set != nil {
		for _, sh := range set.shards {
			n += sh.tm.DepthFast(port)
		}
	}
	return n
}

// TMStats totals enqueued packets and tail drops across every shard TM.
func (s *Switch) TMStats() (enqueued, tailDrops uint64) {
	if set := s.shardsP.Load(); set != nil {
		for _, sh := range set.shards {
			e, d := sh.tm.Stats()
			enqueued += e
			tailDrops += d
		}
	}
	return enqueued, tailDrops
}
