package main

import (
	"sort"
	"sync"
	"time"

	"resilientdb/internal/replica"
)

// Replica 0 is the primary of view 0 (".p") and replica 1 the backup every
// workload keeps alive (".b": backup-crash cuts off replica 3); single-valued
// replica.* and store.* metrics read replica 1, which is also the primary
// after primary-crash's failover.
const (
	primaryID = 0
	backupID  = 1
)

// gaugeSample is one 50 ms reading of the queue gauges Replica.Stats()
// computes live: how full each queue in front of a stage is — the wait,
// where BusyNS is the work.
type gaugeSample struct {
	input, batch, work, exec, out float64 // fill fractions, fullest of primary and backup
	lagBatches                    float64 // primary ledger height − slowest live backup
}

type sampler struct {
	sys     *system
	quit    chan struct{}
	wg      sync.WaitGroup
	samples []gaugeSample
}

func startSampler(sys *system) *sampler {
	s := &sampler{sys: sys, quit: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				s.samples = append(s.samples, s.read())
			}
		}
	}()
	return s
}

func (s *sampler) read() gaugeSample {
	var g gaugeSample
	fill := func(cur *float64, depth, capacity int) {
		if f := ratio(float64(depth), float64(capacity)); f > *cur {
			*cur = f
		}
	}
	for _, id := range []int{primaryID, backupID} {
		if !s.sys.live(id) {
			continue
		}
		st := s.sys.replicas[id].Stats()
		fill(&g.input, st.InputQueueDepth, st.InputQueueCap)
		fill(&g.batch, st.BatchQueueDepth, st.BatchQueueCap)
		fill(&g.work, st.WorkQueueDepth, st.WorkQueueCap)
		fill(&g.exec, st.ExecBacklog, st.ExecWindow)
		fill(&g.out, st.OutQueueDepth, st.OutQueueCap)
	}
	var head, slowest uint64
	slowest = ^uint64(0)
	for i, r := range s.sys.replicas {
		if !s.sys.live(i) {
			continue
		}
		h := r.Ledger().Height()
		if h > head {
			head = h
		}
		if h < slowest {
			slowest = h
		}
	}
	g.lagBatches = float64(head - slowest)
	return g
}

func (s *sampler) stop() []gaugeSample {
	close(s.quit)
	s.wg.Wait()
	return s.samples
}

func p95(samples []gaugeSample, pick func(gaugeSample) float64) float64 {
	xs := make([]float64, len(samples))
	for i, g := range samples {
		xs[i] = pick(g)
	}
	sort.Float64s(xs)
	return percentile(xs, 95)
}

// perLayerRun computes every per-layer metric that is counted or timed
// during the traced window: around the benchmark's own calls (driver spans,
// endpoint and store wrappers) or read from a public Stats().
func perLayerRun(cfg *runConfig, s *session, w *window, st, ref *windowStats, samples []gaugeSample) map[string]float64 {
	v := map[string]float64{}
	windowNS := float64(w.n) * float64(sliceWidth)
	txns := st.txns

	// client: where a request's latency goes, as the driver saw it.
	var gen, sign, send, wait, reply, total, retx float64
	var selfNS int64
	for _, r := range st.recs {
		gen += float64(r.genNS)
		sign += float64(r.signNS)
		send += float64(r.sendNS)
		wait += float64(r.waitNS)
		reply += float64(r.replyNS)
		total += float64(r.done - r.genStart)
		retx += float64(r.retransmits)
		selfNS += r.selfNS()
	}
	reqs := float64(len(st.recs))
	v["client.gen_us_per_req"] = ratio(gen, reqs) / 1e3
	v["client.sign_us_per_req"] = ratio(sign, reqs) / 1e3
	v["client.encode_send_us_per_req"] = ratio(send, reqs) / 1e3
	v["client.wait_us_per_req"] = ratio(wait, reqs) / 1e3
	v["client.reply_verify_decode_us_per_req"] = ratio(reply, reqs) / 1e3
	v["client.retransmits_per_kreq"] = ratio(retx, reqs) * 1e3
	v["client.residual_frac"] = ratio(float64(selfNS), total)
	v["client.lat_p50_ms"] = st.latP50MS
	v["client.lat_p99_ms"] = st.latP99MS
	v["fault.failover_gap_ms"] = st.gapMS

	// transport: the counting wrapper on every replica endpoint.
	var msgs, bytes, sendNS float64
	for _, e := range s.sys.endpoints {
		msgs += float64(e.msgs.Load())
		bytes += float64(e.bytes.Load())
		sendNS += float64(e.sendNS.Load())
	}
	v["transport.msgs_per_txn"] = ratio(msgs, txns)
	v["transport.bytes_per_txn"] = ratio(bytes, txns)
	v["transport.send_us_per_msg"] = ratio(sendNS, msgs) / 1e3
	var drops float64
	for i := range w.reps[1] {
		drops += float64(w.reps[1][i].NetDrops - w.reps[0][i].NetDrops)
	}
	v["transport.inbox_drops"] = drops
	var hits, misses float64
	for _, ep := range s.sys.tcp {
		h, m := ep.FramePoolStats() // cumulative since start: the pool fills during warm-up
		hits += float64(h)
		misses += float64(m)
	}
	v["transport.framepool_hit_frac"] = ratio(hits, hits+misses)

	// replica: Stats() deltas over the window.
	stages := []struct {
		name  string
		stage replica.Stage
	}{
		{"input", replica.StageInput}, {"batch", replica.StageBatch}, {"worker", replica.StageWorker},
		{"execute", replica.StageExecute}, {"checkpoint", replica.StageCheckpoint}, {"output", replica.StageOutput},
	}
	for _, role := range []struct {
		suffix string
		id     int
	}{{".p", primaryID}, {".b", backupID}} {
		a, b := w.reps[0][role.id], w.reps[1][role.id]
		for _, sg := range stages {
			v["replica."+sg.name+"_busy_frac"+role.suffix] = float64(b.BusyNS[sg.stage]-a.BusyNS[sg.stage]) / windowNS
		}
	}
	a, b := w.reps[0][backupID], w.reps[1][backupID]
	executed := float64(b.TxnsExecuted - a.TxnsExecuted)
	msgsIn := float64(b.MsgsIn - a.MsgsIn)
	v["replica.txns_per_batch"] = ratio(executed, float64(b.BatchesExecuted-a.BatchesExecuted))
	v["replica.msgs_in_per_txn"] = ratio(msgsIn, executed)
	v["replica.checkpoints_per_ktxn"] = ratio(float64(b.Checkpoints-a.Checkpoints), executed) * 1e3
	poolHits, poolMisses := float64(b.EncodePoolHits-a.EncodePoolHits), float64(b.EncodePoolMisses-a.EncodePoolMisses)
	v["replica.encode_pool_hit_frac"] = ratio(poolHits, poolHits+poolMisses)
	v["replica.verify_batched_frac"] = ratio(float64(b.VerifyBatched-a.VerifyBatched), msgsIn)
	v["replica.input_queue_fill_p95"] = p95(samples, func(g gaugeSample) float64 { return g.input })
	v["replica.batch_queue_fill_p95"] = p95(samples, func(g gaugeSample) float64 { return g.batch })
	v["replica.work_queue_fill_p95"] = p95(samples, func(g gaugeSample) float64 { return g.work })
	v["replica.exec_backlog_p95"] = p95(samples, func(g gaugeSample) float64 { return g.exec })
	v["replica.out_queue_fill_p95"] = p95(samples, func(g gaugeSample) float64 { return g.out })
	v["replica.backup_lag_batches_p95"] = p95(samples, func(g gaugeSample) float64 { return g.lagBatches })
	var shardMax, shardSum float64
	for i := range b.ExecShardBusyNS {
		d := float64(b.ExecShardBusyNS[i] - a.ExecShardBusyNS[i])
		shardSum += d
		if d > shardMax {
			shardMax = d
		}
	}
	v["replica.exec_shard_busy_frac_max"] = shardMax / windowNS
	v["replica.exec_shard_imbalance"] = ratio(shardMax, ratio(shardSum, float64(len(b.ExecShardBusyNS))))
	var view float64
	for i := range w.reps[1] {
		if s.sys.live(i) && float64(w.reps[1][i].View) > view {
			view = float64(w.reps[1][i].View)
		}
	}
	v["replica.view_changes"] = view

	// store: the timing wrapper on replica 1's store, plus its fsync and
	// compaction accounting.
	c := &s.sys.wrapped[backupID].c
	kvs, writeNS := float64(c.kvs.Load()), float64(c.writeNS.Load())
	gets, getNS := float64(c.gets.Load()), float64(c.getNS.Load())
	rows, scanNS := float64(c.scanRows.Load()), float64(c.scanNS.Load())
	v["store.write_calls_per_txn"] = ratio(float64(c.writeCalls.Load()), executed)
	v["store.kvs_per_putmany"] = ratio(kvs, float64(c.putManyCalls.Load()))
	v["store.write_us_per_kv"] = ratio(writeNS, kvs) / 1e3
	v["store.get_us"] = ratio(getNS, gets) / 1e3
	v["store.scan_us_per_row"] = ratio(scanNS, rows) / 1e3
	v["store.busy_frac"] = (writeNS + getNS + scanNS) / windowNS
	v["store.fsyncs_per_ktxn"] = ratio(float64(b.StoreFsyncs-a.StoreFsyncs), executed) * 1e3
	v["store.fsync_stall_us_per_txn"] = ratio(float64(b.StoreFsyncStallNS-a.StoreFsyncStallNS), executed) / 1e3
	v["store.compactions"] = float64(b.StoreCompactions - a.StoreCompactions)
	v["store.compact_stall_ms"] = float64(b.StoreCompactStallNS-a.StoreCompactStallNS) / 1e6

	// gateway: its own counters and the session load's.
	for _, name := range []string{"gateway.txns_per_upstream_req", "gateway.busy_rejected_frac", "gateway.dup_replayed",
		"gateway.upstream_retransmits", "gateway.load_retries", "gateway.lat_mean_ms",
		"gateway.lat_p50_bucket_ms", "gateway.lat_p99_bucket_ms"} {
		v[name] = 0
	}
	if s.gw != nil {
		first, last := w.marks[0], w.marks[len(w.marks)-1]
		v["gateway.txns_per_upstream_req"] = ratio(float64(last.gw.Completed-first.gw.Completed), float64(last.gw.Requests-first.gw.Requests))
		v["gateway.busy_rejected_frac"] = ratio(float64(last.gw.BusyRejected-first.gw.BusyRejected), float64(st.attempted))
		v["gateway.dup_replayed"] = float64(last.gw.DupReplayed - first.gw.DupReplayed)
		v["gateway.upstream_retransmits"] = float64(last.gw.Retransmits - first.gw.Retransmits)
		v["gateway.load_retries"] = float64(last.load.Retries - first.load.Retries)
		v["gateway.lat_mean_ms"] = littleMeanSeconds(gwSessions, st.txns/w.seconds()) * 1e3
		// The histogram is cumulative since the load started and its buckets
		// are powers of two: these two are upper bounds at x2 resolution.
		v["gateway.lat_p50_bucket_ms"] = float64(s.gw.load.Latency().Percentile(50)) / 1e6
		v["gateway.lat_p99_bucket_ms"] = float64(s.gw.load.Latency().Percentile(99)) / 1e6
	}

	// bench: what qualifies the other numbers. CPU per transaction comes from
	// the untraced reference window, so it carries no tracing cost.
	v["bench.cpu_us_per_txn"] = ref.cpuUSPerTxn
	v["bench.trace_overhead_frac"] = 1 - ratio(st.tput, ref.tput)
	v["bench.slice_cv"] = coefficientOfVariation(st.rates)
	return v
}
