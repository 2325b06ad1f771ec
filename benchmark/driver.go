package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"resilientdb/internal/consensus"
	clientengine "resilientdb/internal/consensus/client"
	"resilientdb/internal/crypto"
	"resilientdb/internal/pool"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

// reqRec is one completed request as its driver saw it: exact boundaries in
// nanoseconds since the run's epoch, never a bucket. Latency is signStart →
// done (the paper's client model signs, sends, and waits for f+1 matching
// replies); the five child durations partition genStart → done.
type reqRec struct {
	genStart, signStart, done int64
	genNS, signNS, sendNS     int64
	waitNS, replyNS           int64
	retransmits               int
}

func (r *reqRec) latencyNS() int64 { return r.done - r.signStart }

// selfNS is the request span's self time: its duration minus what its five
// child spans cover. The children never overlap, so their durations add.
func (r *reqRec) selfNS() int64 {
	return (r.done - r.genStart) - (r.genNS + r.signNS + r.sendNS + r.waitNS + r.replyNS)
}

// driver is one logical closed-loop client on one connection: exactly one
// request of burst transactions in flight. It is built from the same public
// pieces cluster.Client uses, but keeps a timestamp per request where that
// client keeps a power-of-two histogram.
type driver struct {
	id      types.ClientID
	n       int
	burst   int
	timeout time.Duration
	ep      transport.Endpoint
	auth    crypto.Authenticator
	engine  *clientengine.Engine
	wl      *workload.Workload
	tr      *tracer

	encBufs *pool.BytePool
	encHint int

	// recs and spans are appended by run's goroutine only and read after it
	// has returned; acked is the live count other goroutines may poll.
	recs  []reqRec
	spans []span
	acked atomic.Uint64
	// inFlightSince is the sign-start of the request being waited on (0 when
	// none), so a request still unanswered at shutdown can be judged late.
	inFlightSince atomic.Int64
}

func newDriver(id types.ClientID, sp *spec, seed int64, dir *crypto.Directory, ep transport.Endpoint, tr *tracer) (*driver, error) {
	eng, err := clientengine.New(id, 4, clientengine.PBFT)
	if err != nil {
		return nil, err
	}
	wl, err := workload.New(sp.workloadConfig(seed), int64(id))
	if err != nil {
		return nil, err
	}
	return &driver{
		id: id, n: 4, burst: sp.burst, timeout: sp.clientTimeout,
		ep: ep, auth: dir.NodeAuth(types.ClientNode(id)), engine: eng, wl: wl, tr: tr,
		encBufs: new(pool.BytePool),
		recs:    make([]reqRec, 0, 1<<16),
	}, nil
}

// run submits requests in a closed loop until ctx is cancelled or the
// endpoint closes.
func (d *driver) run(ctx context.Context) {
	inbox := d.ep.Inbox(0)
	timer := time.NewTimer(d.timeout)
	defer timer.Stop()
	self := types.ClientNode(d.id)

	for seq := uint64(1); ctx.Err() == nil; seq += uint64(d.burst) {
		tracing := d.tr.on.Load() && len(d.spans) < maxSpansPerRecorder
		var rec reqRec
		rec.genStart = d.tr.now()
		req := d.wl.NextRequest(d.id, seq, d.burst)
		rec.signStart = d.tr.now()
		sig, err := d.auth.Sign(types.ReplicaNode(0), req.SigningBytes())
		if err != nil {
			return
		}
		req.Sig = sig
		signed := d.tr.now()
		d.inFlightSince.Store(rec.signStart)
		d.dispatch(self, d.engine.Submit(req))
		sent := d.tr.now()
		rec.genNS, rec.signNS, rec.sendNS = rec.signStart-rec.genStart, signed-rec.signStart, sent-signed
		if tracing {
			d.child("gen", seq, rec.genStart, rec.signStart)
			d.child("sign", seq, rec.signStart, signed)
			d.child("encode_send", seq, signed, sent)
		}

		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d.timeout)

		// Time not covered by a wait or a reply span — retransmitting after a
		// timeout — is the request span's self time, reported as
		// client.residual_frac.
		mark := sent
		for rec.done == 0 {
			select {
			case <-ctx.Done():
				return
			case env, ok := <-inbox:
				if !ok {
					return
				}
				got := d.tr.now()
				outcome := d.onReply(self, env)
				handled := d.tr.now()
				rec.waitNS += got - mark
				rec.replyNS += handled - got
				if tracing {
					d.child("wait", seq, mark, got)
					d.child("reply_verify_decode", seq, got, handled)
				}
				mark = handled
				if outcome != nil {
					rec.done = handled
				}
			case <-timer.C:
				fired := d.tr.now()
				rec.waitNS += fired - mark
				if tracing {
					d.child("wait", seq, mark, fired)
				}
				rec.retransmits++
				d.dispatch(self, d.engine.OnTimeout())
				timer.Reset(d.timeout)
				mark = d.tr.now()
			}
		}
		if tracing {
			d.spans = append(d.spans, span{Name: "request", Req: d.reqID(seq), Replica: -1, Start: rec.genStart, End: rec.done, N: d.burst})
		}
		d.inFlightSince.Store(0)
		d.recs = append(d.recs, rec)
		d.acked.Add(uint64(d.burst))
	}
}

// reqID is unique across drivers: the client id above the client sequence.
func (d *driver) reqID(seq uint64) uint64 { return uint64(d.id)<<40 | seq }

func (d *driver) child(name string, seq uint64, start, end int64) {
	d.spans = append(d.spans, span{Name: name, Parent: "request", Req: d.reqID(seq), Replica: -1, Start: start, End: end})
}

// onReply authenticates and decodes one inbound envelope and feeds it to
// the client engine; it returns the outcome when the reply completed the
// request.
func (d *driver) onReply(self types.NodeID, env *types.Envelope) *clientengine.Outcome {
	if err := d.auth.Verify(env.From, env.Body, env.Auth); err != nil {
		env.Release()
		return nil
	}
	from := env.From
	msg, err := types.DecodeBody(env.Type, env.Body)
	env.Release() // decode copied every field; the frame buffer retires here
	if err != nil {
		return nil
	}
	outcome, acts := d.engine.OnMessage(from, msg)
	d.dispatch(self, acts)
	return outcome
}

func (d *driver) dispatch(self types.NodeID, acts []consensus.Action) {
	for _, a := range acts {
		switch act := a.(type) {
		case consensus.Send:
			d.transmit(self, act.To, act.Msg)
		case consensus.Broadcast:
			for r := 0; r < d.n; r++ {
				d.transmit(self, types.ReplicaNode(types.ReplicaID(r)), act.Msg)
			}
		}
	}
}

// transmit is cluster.Client's pooled-encode send path.
func (d *driver) transmit(from, to types.NodeID, msg types.Message) {
	body, arena := types.MarshalBodyArena(msg, d.encBufs, d.encHint)
	if len(body) > d.encHint {
		d.encHint = len(body)
	}
	sig, err := d.auth.Sign(to, body)
	if err != nil {
		arena.Release()
		return
	}
	env := types.AcquireEnvelope()
	env.From, env.To, env.Type = from, to, msg.Type()
	env.Body, env.Auth = body, sig
	env.Attach(arena)
	if err := d.ep.Send(env); err != nil {
		env.Release()
	}
	arena.Release()
}

// directLoad is the benchmark's load generator for the direct workloads:
// min(nproc, 4) drivers, one connection and one goroutine each. Concurrency
// comes from Burst, not from goroutines.
type directLoad struct {
	drivers []*driver
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

func startDirectLoad(sp *spec, seed int64, sys *system, tr *tracer, count int) (*directLoad, error) {
	ctx, cancel := context.WithCancel(context.Background())
	l := &directLoad{cancel: cancel}
	for i := 0; i < count; i++ {
		id := types.ClientID(1000 + i)
		ep, err := sys.clientEndpoint(id)
		if err != nil {
			l.stop()
			return nil, fmt.Errorf("driver %d endpoint: %w", i, err)
		}
		d, err := newDriver(id, sp, seed, sys.dir, ep, tr)
		if err != nil {
			l.stop()
			return nil, err
		}
		l.drivers = append(l.drivers, d)
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			d.run(ctx)
		}()
	}
	return l, nil
}

func (l *directLoad) ackedTxns() uint64 {
	var n uint64
	for _, d := range l.drivers {
		n += d.acked.Load()
	}
	return n
}

// stop ends every driver and waits for it; the drivers' records may be
// read afterwards.
func (l *directLoad) stop() {
	l.cancel()
	l.wg.Wait()
}
