package sim

// runUpperBound measures the Figure 7 ceiling: clients talk to a single
// primary that answers immediately — no other replicas, no consensus, no
// ordering — with two threads working independently. UpperBoundExec
// additionally executes each transaction before responding.
func (r *run) runUpperBound() (Result, error) {
	cfg := r.cfg
	host := NewHost(r.sim, cfg.Cores, NewNIC(r.sim, r.costs.NICBandwidth))
	host.CtxSwitch = r.costs.CtxSwitch
	workers := []*Thread{host.NewThread("worker-1"), host.NewThread("worker-2")}

	machines := make([]*Host, clientMachines)
	for i := range machines {
		machines[i] = NewHost(r.sim, 4, NewNIC(r.sim, r.costs.NICBandwidth))
	}

	perOp := r.costs.ExecPerOpMem
	if cfg.Storage == StorageDisk {
		perOp = r.costs.ExecPerOpDisk
	}
	signCost, _ := r.costs.replicaSign(cfg.Scheme)

	rr := 0
	type ubClient struct {
		machine *Host
		start   Time
	}
	clients := make([]*ubClient, cfg.Clients)
	var submit func(c *ubClient)
	submit = func(c *ubClient) {
		c.start = r.sim.Now()
		c.machine.NIC.Send(r.reqSize, r.costs.LinkLatency, func() {
			w := workers[rr%len(workers)]
			rr++
			cost := r.costs.InputPerMsg + r.costs.WorkerPerMsg + r.costs.OutputPerMsg +
				r.costs.clientVerify(cfg.Scheme) + r.costs.RespPerReq + signCost
			if cfg.UpperBound == UpperBoundExec {
				cost += Time(cfg.Burst*cfg.OpsPerTxn) * perOp
			}
			host.Submit(w, cost, func() {
				host.NIC.Send(r.respSize, r.costs.LinkLatency, func() {
					r.recordCompletion(c.start, true)
					submit(c)
				})
			})
		})
	}
	for i := range clients {
		clients[i] = &ubClient{machine: machines[i%len(machines)]}
		c := clients[i]
		r.sim.At(Time(i%1000)*5*Microsecond, func() { submit(c) })
	}

	var busyAtWarmup []Time
	r.sim.At(cfg.Warmup, func() {
		for _, t := range host.Threads() {
			busyAtWarmup = append(busyAtWarmup, t.BusyNS)
		}
	})

	events := r.sim.Run(cfg.Warmup + cfg.Measure)
	res := Result{
		ThroughputTxns:    float64(r.measured) / (float64(cfg.Measure) / float64(Second)),
		MeanLatency:       r.latency.Mean(),
		P50Latency:        r.latency.Percentile(50),
		P99Latency:        r.latency.Percentile(99),
		Events:            events,
		PrimarySaturation: map[string]float64{},
		BackupSaturation:  map[string]float64{},
	}
	res.ThroughputOps = res.ThroughputTxns * float64(cfg.OpsPerTxn)
	for i, t := range host.Threads() {
		base := Time(0)
		if busyAtWarmup != nil {
			base = busyAtWarmup[i]
		}
		res.PrimarySaturation[t.Name] = float64(t.BusyNS-base) / float64(cfg.Measure)
	}
	return res, nil
}
