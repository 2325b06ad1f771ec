package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"resilientdb/internal/consensus"
	"resilientdb/internal/consensus/enginetest"
	"resilientdb/internal/consensus/pbft"
	"resilientdb/internal/crypto"
	"resilientdb/internal/ledger"
	"resilientdb/internal/pool"
	"resilientdb/internal/store"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// A probe is a fixed-iteration call loop into one layer's public functions
// with this benchmark's shapes (32-txn requests, 100-byte values, N=4). The
// iteration counts are constants so counts such as pbft.steps_per_batch
// repeat exactly; the timings qualify where an end-to-end shift came from
// and carry no bound.

// timed runs fn iters times and returns nanoseconds and heap allocations
// per iteration.
func timed(iters int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(iters), float64(after.Mallocs-before.Mallocs) / float64(iters)
}

const probeBurst = 32

func runProbes(cfg *runConfig, v map[string]float64) error {
	writeOnly := *findSpec("write-mem-tcp")
	wl, err := workload.New(writeOnly.workloadConfig(cfg.seed), 1)
	if err != nil {
		return err
	}

	// workload: the generator's own share of cpu_us_per_txn.
	ns, _ := timed(5000, func(i int) { wl.NextRequest(1, uint64(i)*probeBurst+1, probeBurst) })
	v["workload.next_request_ns_per_txn"] = ns / probeBurst

	// types: the codec on a 32-txn ClientRequest, and the TCP frame path on
	// a 64-envelope batch.
	req := wl.NextRequest(1, 1, probeBurst)
	var body []byte
	v["types.encode_request_ns"], v["types.encode_request_allocs"] = timed(20000, func(int) { body = types.MarshalBody(&req) })
	var decodeErr error
	v["types.decode_request_ns"], v["types.decode_request_allocs"] = timed(20000, func(int) {
		if _, err := types.DecodeBody(types.MsgClientRequest, body); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("types probe: %w", decodeErr)
	}
	if v["types.frame_roundtrip_ns_per_env"], err = probeFrames(); err != nil {
		return err
	}
	if err := probeCrypto(cfg.seed, &req, v); err != nil {
		return err
	}
	if v["transport.tcp_env_per_s"], err = probeTCP(); err != nil {
		return err
	}
	if err := probePBFT(v); err != nil {
		return err
	}
	if err := probeStore(cfg, v); err != nil {
		return err
	}

	// ledger: appending a block with a 2f+1 commit certificate.
	lg := ledger.New(ledger.CommitCertificate, types.Digest{1}, 3)
	proof := []types.CommitSig{{Replica: 0, Auth: make([]byte, 16)}, {Replica: 1, Auth: make([]byte, 16)}, {Replica: 2, Auth: make([]byte, 16)}}
	var appendErr error
	v["ledger.append_ns"], _ = timed(100000, func(i int) {
		if _, err := lg.Append(types.SeqNum(i+1), 0, types.Digest{byte(i)}, proof, probeBurst); err != nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		return fmt.Errorf("ledger probe: %w", appendErr)
	}
	return nil
}

// probeFrames times AppendBatchFrame + ReadFramesPooled on 64 envelopes
// with 256-byte bodies: the encode and zero-copy decode a TCP hop costs,
// without the socket.
func probeFrames() (nsPerEnv float64, err error) {
	const perFrame = 64
	envs := make([]*types.Envelope, perFrame)
	for i := range envs {
		envs[i] = &types.Envelope{From: types.ReplicaNode(0), To: types.ReplicaNode(1), Type: types.MsgPrepare,
			Body: make([]byte, 256), Auth: make([]byte, 16)}
	}
	w := types.NewWriterSize(32 << 10)
	bufs := new(pool.BytePool)
	var rd bytes.Reader
	ns, _ := timed(5000, func(int) {
		w.Reset()
		types.AppendBatchFrame(w, envs)
		rd.Reset(w.Bytes())
		out, e := types.ReadFramesPooled(&rd, bufs)
		if e != nil || len(out) != perFrame {
			err = fmt.Errorf("frame probe: %d envelopes, %v", len(out), e)
			return
		}
		for _, env := range out {
			env.Release()
		}
	})
	return ns / perFrame, err
}

// probeCrypto times the two schemes crypto.Recommended() combines: ED25519
// on a client's 32-txn request, CMAC on a 100-byte replica message.
func probeCrypto(seed int64, req *types.ClientRequest, v map[string]float64) error {
	dir, err := newDirectory(seed)
	if err != nil {
		return err
	}
	client, r0, r1 := types.ClientNode(1), types.ReplicaNode(0), types.ReplicaNode(1)
	clientAuth, auth0, auth1 := dir.NodeAuth(client), dir.NodeAuth(r0), dir.NodeAuth(r1)
	msg := req.SigningBytes()
	var sig []byte
	var fail error
	ns, _ := timed(2000, func(int) {
		if sig, err = clientAuth.Sign(r0, msg); err != nil {
			fail = err
		}
	})
	v["crypto.ed25519_sign_us"] = ns / 1e3
	ns, _ = timed(2000, func(int) {
		if err := auth0.Verify(client, msg, sig); err != nil {
			fail = err
		}
	})
	v["crypto.ed25519_verify_us"] = ns / 1e3

	small := make([]byte, 100)
	var mac []byte
	v["crypto.cmac_sign_ns"], _ = timed(200000, func(int) {
		if mac, err = auth0.Sign(r1, small); err != nil {
			fail = err
		}
	})
	v["crypto.cmac_verify_ns"], _ = timed(200000, func(int) {
		if err := auth1.Verify(r0, small, mac); err != nil {
			fail = err
		}
	})

	batcher, ok := auth0.(crypto.BatchVerifier)
	if !ok {
		return fmt.Errorf("crypto probe: node authenticator has no VerifyBatch")
	}
	const batch = 64
	srcs, msgs, sigs := make([]types.NodeID, batch), make([][]byte, batch), make([][]byte, batch)
	for i := range srcs {
		srcs[i], msgs[i], sigs[i] = client, msg, sig
	}
	ns, _ = timed(30, func(int) {
		if err := batcher.VerifyBatch(srcs, msgs, sigs); err != nil {
			fail = err
		}
	})
	v["crypto.verify_batch64_us_per_sig"] = ns / batch / 1e3
	if fail != nil {
		return fmt.Errorf("crypto probe: %w", fail)
	}
	return nil
}

// probeTCP pushes a fixed number of 256-byte envelopes through one loopback
// connection with default batching and returns delivered envelopes per
// second.
func probeTCP() (float64, error) {
	const total = 200_000
	rx, err := transport.NewTCPWithConfig(transport.TCPConfig{
		Self: types.ReplicaNode(1), ListenAddr: "127.0.0.1:0", Inboxes: 1, Capacity: 1 << 13, ZeroCopy: true})
	if err != nil {
		return 0, err
	}
	defer rx.Close()
	tx, err := transport.NewTCPWithConfig(transport.TCPConfig{
		Self: types.ReplicaNode(0), ListenAddr: "127.0.0.1:0", Inboxes: 1, Capacity: 16})
	if err != nil {
		return 0, err
	}
	defer tx.Close()
	tx.SetPeerAddr(types.ReplicaNode(1), rx.Addr())

	body, auth := make([]byte, 256), make([]byte, 16)
	sendErr := make(chan error, 1)
	start := time.Now()
	go func() {
		for i := 0; i < total; i++ {
			env := &types.Envelope{From: types.ReplicaNode(0), To: types.ReplicaNode(1), Type: types.MsgPrepare, Body: body, Auth: auth}
			if err := tx.Send(env); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	// An inbox enqueue is non-blocking, so an envelope that arrives while
	// the inbox is full is dropped and counted: the loop ends when every
	// envelope is accounted for, and the recheck tick covers a drop that
	// lands after the last delivery.
	received := 0
	inbox := rx.Inbox(0)
	recheck := time.NewTicker(10 * time.Millisecond)
	defer recheck.Stop()
	deadline := time.After(30 * time.Second)
	for received+int(rx.Drops()) < total {
		select {
		case env := <-inbox:
			env.Release()
			received++
		case <-recheck.C:
		case <-deadline:
			return 0, fmt.Errorf("tcp probe: %d of %d envelopes after 30s", received, total)
		}
	}
	elapsed := time.Since(start)
	if err := <-sendErr; err != nil {
		return 0, fmt.Errorf("tcp probe: %w", err)
	}
	return float64(received) / elapsed.Seconds(), nil
}

// probePBFT drives four PBFT engines on one goroutine with no crypto and no
// I/O: what the protocol state machine itself costs per batch. The step
// count is exact and must repeat from run to run.
func probePBFT(v map[string]float64) error {
	const batches = 2000
	engines := make([]consensus.Engine, replicaCount)
	for i := range engines {
		e, err := pbft.New(pbft.Config{ID: types.ReplicaID(i), N: replicaCount, CheckpointInterval: checkpointInterval})
		if err != nil {
			return err
		}
		engines[i] = e
	}
	c := enginetest.NewCluster(engines)
	reqs := []types.ClientRequest{enginetest.MakeRequest(1, 1)}
	steps := 0
	ns, allocs := timed(batches, func(int) {
		c.Propose(0, reqs)
		for c.Step() {
			steps++
		}
	})
	if got := len(c.Executed[replicaCount-1]); got != batches {
		return fmt.Errorf("pbft probe: replica %d executed %d of %d batches", replicaCount-1, got, batches)
	}
	v["pbft.batch_us"] = ns / 1e3
	v["pbft.steps_per_batch"] = float64(steps) / batches
	v["pbft.allocs_per_batch"] = allocs
	return nil
}

// probeStore times the two backends the workloads use, with the execute
// stage's shapes: 32-KV PutMany partitions, point Gets, 20-row scans.
func probeStore(cfg *runConfig, v map[string]float64) error {
	const records = 20_000
	val := make([]byte, 100)
	kvs := make([]store.KV, probeBurst)
	fill := func(i int) {
		for j := range kvs {
			kvs[j] = store.KV{Key: uint64(i*probeBurst+j) % records, Value: val}
		}
	}
	var fail error
	mem := store.NewMemStore(records)
	ns, _ := timed(20000, func(i int) {
		fill(i)
		if err := mem.PutMany(kvs); err != nil {
			fail = err
		}
	})
	v["store.mem_putmany_ns_per_kv"] = ns / probeBurst

	dir := filepath.Join(cfg.outDir, fmt.Sprintf("data-probe-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	disk, err := store.OpenShardedDisk(dir, store.ShardedDiskOptions{Shards: 2, SyncLinger: 2 * time.Millisecond, ReadIndex: true})
	if err != nil {
		return err
	}
	defer disk.Close()
	// Writes cover the key space once, so the reads below all hit.
	ns, _ = timed(records/probeBurst, func(i int) {
		fill(i)
		if err := disk.PutMany(kvs); err != nil {
			fail = err
		}
	})
	v["store.sharded_putmany_us_per_kv"] = ns / probeBurst / 1e3
	v["store.sharded_get_ns"], _ = timed(100000, func(i int) {
		if _, err := disk.Get(uint64(i*7919) % records); err != nil {
			fail = err
		}
	})
	rows := 0
	ns, _ = timed(5000, func(i int) {
		start := uint64(i*7919) % (records - 20)
		if err := disk.Scan(start, start+19, func(uint64, []byte) bool { rows++; return true }); err != nil {
			fail = err
		}
	})
	v["store.sharded_scan_ns_per_row"] = ns * 5000 / float64(rows)
	if fail != nil {
		return fmt.Errorf("store probe: %w", fail)
	}
	return nil
}
