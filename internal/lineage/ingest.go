package lineage

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"subzero/internal/fault"
	"subzero/internal/obs"
)

// Failpoints covering the async capture path: a shard worker applying a
// batch (error and panic actions exercise the latched-error and panic-
// containment contracts) and the end-of-run drain barrier.
var (
	fpIngestBatch = fault.Register("lineage/ingest/batch")
	fpIngestDrain = fault.Register("lineage/ingest/drain")
)

// This file is the sharded asynchronous ingest pipeline: the write half
// of the capture path, moved off the operator's thread.
//
//	operator ──lwrite──▶ Writer ──batches──▶ Coordinator
//	                                            │ hash-partition
//	                        ┌───────────┬───────┴───┬───────────┐
//	                     shard 0     shard 1      ...        shard N-1
//	                  span-encode  span-encode            span-encode
//	                  build index  build index            build index
//	                        └───────────┴─────┬─────┴───────────┘
//	                                 kvstore group commit
//
// Operators pay only the enqueue cost (plus backpressure stalls when the
// shards fall behind); the expensive span encoding (internal/binenc) and
// hashtable/R-tree construction run on the shard workers. Flush becomes
// a drain barrier. A shard worker encodes a batch's records concurrently
// with the others, stages them in their 64-id blocks and applies the
// batch's index items or cell entries holding the store's write mutex (see
// Store), and commits the blocks the batch completed. Lookups never touch
// the pipeline: a store answers only once the writer's Flush has drained
// it and sealed the store.

// DefaultIngestDepth is the per-shard queue depth, in batches, when the
// config leaves Depth unset. The queue is deliberately shallow: each
// batch already carries up to flushCellThreshold cells, so a deep queue
// would only hide backpressure and grow the drain barrier.
const DefaultIngestDepth = 8

// IngestConfig sizes the asynchronous ingest pipeline.
type IngestConfig struct {
	// Shards is the number of shard workers encoding lineage off the
	// operator thread. <= 1 keeps the synchronous write path.
	Shards int
	// Depth bounds each shard's queue, in batches; an operator that
	// outruns the shards blocks on enqueue (backpressure) rather than
	// buffering unboundedly. <= 0 selects DefaultIngestDepth.
	Depth int
}

// Enabled reports whether the config asks for asynchronous ingest.
func (c IngestConfig) Enabled() bool { return c.Shards > 1 }

// normalized fills defaults.
func (c IngestConfig) normalized() IngestConfig {
	if c.Depth <= 0 {
		c.Depth = DefaultIngestDepth
	}
	return c
}

// ingestTask is one unit of shard work: a sub-batch of pairs destined for
// one store, with pre-assigned record ids, or a barrier token.
type ingestTask struct {
	store   *Store
	pairs   []RegionPair
	ids     []uint64 // pre-assigned pair ids; nil for PayOne
	barrier *sync.WaitGroup
}

// ingestShard is one worker's queue plus its utilization series, resolved
// once at startup so the worker loop pays only atomic adds.
type ingestShard struct {
	ch    chan ingestTask
	busy  *obs.Counter
	pairs *obs.Counter
}

// Coordinator hash-partitions raw region pairs across N shard workers —
// the per-run ingest pipeline the workflow executor stands up when async
// capture is enabled. One coordinator serves every store of a run;
// operators execute serially, so at any moment the active writer's
// stores are the only ones receiving work.
//
// Error model: the first failure (encode, commit, or context
// cancellation) is latched; subsequent enqueues fail fast with it and
// the drain barrier re-reports it, so the error reaches the operator
// through the writer exactly as a synchronous write failure would.
//
// Two locks, both about the pipeline's own lifetime and neither about
// store data: life orders channel sends against Close, mu guards the
// latched error and the closed flag. Pipeline counters live in the
// obs.IngestObs the coordinator reports into and nowhere else.
type Coordinator struct {
	ctx     context.Context
	cfg     IngestConfig
	shards  []*ingestShard
	wg      sync.WaitGroup
	metrics *obs.IngestObs // shared across an executor's runs

	// life arbitrates channel sends against Close: producers hold it
	// shared around sends, Close holds it exclusively around closing the
	// shard channels, so a racing Barrier or Enqueue can never send on a
	// closed channel.
	life sync.RWMutex

	mu     sync.Mutex
	err    error
	closed bool
}

// NewCoordinator starts cfg.Shards shard workers. The context bounds the
// pipeline's lifetime: cancellation fails the coordinator, unblocks
// producers stuck in backpressure, and surfaces through Barrier so the
// run aborts on the executor's existing cancellation path. Close must be
// called when the run ends. A nil metrics counts into a private bundle.
func NewCoordinator(ctx context.Context, cfg IngestConfig, metrics *obs.IngestObs) *Coordinator {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.normalized()
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if metrics == nil {
		metrics = obs.NewIngestObs()
	}
	c := &Coordinator{ctx: ctx, cfg: cfg, metrics: metrics}
	c.shards = make([]*ingestShard, cfg.Shards)
	for i := range c.shards {
		label := strconv.Itoa(i)
		sh := &ingestShard{
			ch:    make(chan ingestTask, cfg.Depth),
			busy:  metrics.ShardBusy.With1(label),
			pairs: metrics.ShardPairs.With1(label),
		}
		c.shards[i] = sh
		c.wg.Add(1)
		go c.worker(sh)
	}
	return c
}

// Shards returns the worker count.
func (c *Coordinator) Shards() int { return c.cfg.Shards }

// Err returns the latched pipeline error, if any.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *Coordinator) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// worker drains one shard queue. After a failure (or cancellation) it
// keeps consuming so producers and barriers never deadlock, but drops the
// work.
func (c *Coordinator) worker(sh *ingestShard) {
	defer c.wg.Done()
	for t := range sh.ch {
		if t.barrier != nil {
			t.barrier.Done()
			continue
		}
		if err := c.ctx.Err(); err != nil {
			c.fail(fmt.Errorf("lineage: ingest cancelled: %w", err))
			continue
		}
		if c.Err() != nil {
			continue
		}
		start := time.Now()
		err := c.runBatch(t.store, t.pairs, t.ids)
		elapsed := time.Since(start)
		t.store.AddWriteTime(elapsed)
		sh.busy.Add(int64(elapsed))
		sh.pairs.Add(int64(len(t.pairs)))
		if err != nil {
			c.fail(err)
		}
	}
}

// runBatch applies one batch with panic containment: a panicking encode
// or commit (a poisoned pair block) becomes a latched pipeline error that
// fails this run's capture, while the worker goroutine survives to keep
// draining its queue — producers blocked on the shard channel and drain
// barriers must never deadlock on a dead worker.
func (c *Coordinator) runBatch(store *Store, pairs []RegionPair, ids []uint64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fault.AsError("lineage ingest shard worker", r)
		}
	}()
	if err := fault.Inject(fpIngestBatch); err != nil {
		return err
	}
	return store.ingestBatch(pairs, ids)
}

// shardOf picks the shard for one pair: the partition key is the pair's
// first output cell, mixed through a Fibonacci hash so spatially adjacent
// pairs spread across workers.
func (c *Coordinator) shardOf(rp *RegionPair) int {
	var cell uint64
	if len(rp.Out) > 0 {
		cell = rp.Out[0]
	}
	return int((cell * 0x9E3779B97F4A7C15) >> 33 % uint64(len(c.shards)))
}

// Enqueue hands one batch of pairs to the pipeline for every store in
// stores, hash-partitioning the pairs across the shard workers. Record
// ids are reserved here, on the calling thread, so every record and cell
// entry ends up byte-identical to a serial write regardless of worker
// scheduling. The call blocks when a shard queue is full (bounded-channel
// backpressure) and fails fast on a latched pipeline error or context
// cancellation.
// Ownership of pairs transfers to the pipeline; the caller must not
// mutate the slice afterwards.
func (c *Coordinator) Enqueue(stores []*Store, pairs []RegionPair) error {
	if len(pairs) == 0 || len(stores) == 0 {
		return nil
	}
	if err := c.Err(); err != nil {
		return err
	}
	enqueueStart := time.Now()
	c.life.RLock()
	defer c.life.RUnlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("lineage: enqueue on closed ingest coordinator")
	}
	c.mu.Unlock()

	// Partition once; the per-shard sub-batches are read-only and shared
	// by every store's tasks — only the pair-id slices are per store.
	buckets := make([][]int, len(c.shards))
	for i := range pairs {
		sh := c.shardOf(&pairs[i])
		buckets[sh] = append(buckets[sh], i)
	}
	subs := make([][]RegionPair, len(c.shards))
	for sh, idxs := range buckets {
		if len(idxs) == 0 {
			continue
		}
		sub := make([]RegionPair, len(idxs))
		for j, i := range idxs {
			sub[j] = pairs[i]
		}
		subs[sh] = sub
	}
	var batches int
	for _, st := range stores {
		start := time.Now()
		ids := st.reservePairIDs(len(pairs))
		for sh, idxs := range buckets {
			if len(idxs) == 0 {
				continue
			}
			var subIDs []uint64
			if ids != nil {
				subIDs = make([]uint64, len(idxs))
				for j, i := range idxs {
					subIDs[j] = ids[i]
				}
			}
			task := ingestTask{store: st, pairs: subs[sh], ids: subIDs}
			select {
			case c.shards[sh].ch <- task:
			case <-c.ctx.Done():
				err := fmt.Errorf("lineage: ingest cancelled: %w", c.ctx.Err())
				c.fail(err)
				return err
			}
			batches++
			depth := int64(len(c.shards[sh].ch))
			c.metrics.QueueDepth.Set(depth)
			c.metrics.QueueHighWater.SetMax(depth)
		}
		st.AddEnqueueTime(time.Since(start))
	}
	c.metrics.Batches.Add(int64(batches))
	c.metrics.Pairs.Add(int64(len(pairs)))
	// The stall covers the whole hand-off — partitioning, id reservation,
	// and time blocked on full shard queues — i.e. what async capture
	// still costs the operator thread.
	c.metrics.EnqueueStall.ObserveSince(enqueueStart)
	return c.Err()
}

// Barrier drains the pipeline: it returns once every task enqueued
// before the call has been fully applied to its store, then reports the
// latched pipeline error, if any. The writer's end-of-run Flush
// synchronizes through this; lookups never do.
func (c *Coordinator) Barrier() error {
	if err := fault.Inject(fpIngestDrain); err != nil {
		c.fail(err)
		return err
	}
	start := time.Now()
	var wg sync.WaitGroup
	c.life.RLock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.life.RUnlock()
		return c.Err()
	}
	c.mu.Unlock()
	for _, sh := range c.shards {
		wg.Add(1)
		select {
		case sh.ch <- ingestTask{barrier: &wg}:
		case <-c.ctx.Done():
			wg.Done()
			c.life.RUnlock()
			err := fmt.Errorf("lineage: ingest cancelled: %w", c.ctx.Err())
			c.fail(err)
			return err
		}
	}
	c.life.RUnlock()
	wg.Wait()
	c.metrics.Flush.ObserveSince(start)
	return c.Err()
}

// Close shuts the pipeline down, waiting for the workers to exit. Tasks
// still queued are processed (or dropped, after a failure) first. Close
// is idempotent.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return c.Err()
	}
	c.closed = true
	c.mu.Unlock()
	// Exclude in-flight senders (Enqueue/Barrier) so the close below can
	// never race a channel send.
	c.life.Lock()
	for _, sh := range c.shards {
		close(sh.ch)
	}
	c.life.Unlock()
	c.wg.Wait()
	return c.Err()
}

// IngestSnapshot is a point-in-time copy of the pipeline counters.
type IngestSnapshot struct {
	Shards         int             // configured shard workers (0 = serial ingest)
	Depth          int             // per-shard queue depth, in batches
	Batches        int64           // sub-batches enqueued to shard queues
	Pairs          int64           // region pairs through the pipeline
	QueueHighWater int             // deepest shard queue observed, in batches
	EncodeTime     time.Duration   // summed shard-worker busy time
	FlushTime      time.Duration   // summed drain-barrier latency
	FlushMin       time.Duration   // fastest drain barrier (0 until one runs)
	FlushAvg       time.Duration   // mean drain-barrier latency
	FlushMax       time.Duration   // slowest drain barrier
	Flushes        int64           // drain barriers executed
	ShardPairs     []int64         // per-shard pairs processed
	ShardBusy      []time.Duration // per-shard busy time
}

// SnapshotIngest reads the pipeline counters out of the obs bundle every
// coordinator of an executor reports into — the numbers GET /v1/stats
// serves: queue pressure, shard utilization, and flush (drain barrier)
// latency — under the given configuration.
func SnapshotIngest(o *obs.IngestObs, cfg IngestConfig) IngestSnapshot {
	flush := o.Flush.Snapshot()
	snap := IngestSnapshot{
		Batches:        o.Batches.Load(),
		Pairs:          o.Pairs.Load(),
		QueueHighWater: int(o.QueueHighWater.Load()),
		FlushTime:      time.Duration(flush.Sum),
		FlushMin:       time.Duration(flush.Min),
		FlushAvg:       time.Duration(flush.Mean()),
		FlushMax:       time.Duration(flush.Max),
		Flushes:        flush.Count,
	}
	// NewCoordinator resolves shard i's series only after shard i-1's, so
	// insertion order — the order Each visits — is shard order.
	o.ShardPairs.Each(func(_ []string, n int64) {
		snap.ShardPairs = append(snap.ShardPairs, n)
	})
	o.ShardBusy.Each(func(_ []string, ns int64) {
		snap.ShardBusy = append(snap.ShardBusy, time.Duration(ns))
		snap.EncodeTime += time.Duration(ns)
	})
	if cfg.Enabled() {
		cfg = cfg.normalized()
		snap.Shards = cfg.Shards
		snap.Depth = cfg.Depth
	}
	return snap
}
