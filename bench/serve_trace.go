package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/telemetry"
	"repro/internal/xmlrpc"
	"repro/pkg/gae"
)

// tracer links the spans of the traced slice. The slice has one
// sequential client, so "the current operation" is one set of atomics
// the client-side round-tripper and the server-side handler both read.
type tracer struct {
	rec      *recorder
	on       atomic.Bool
	op       atomic.Int64
	callSpan atomic.Int64
	rtSpan   atomic.Int64

	mu       sync.Mutex
	serveOf  map[int64]int64 // op → its clarens.serve span
	reqBody  []byte          // the current op's captured bodies
	respBody []byte
}

// roundTripper records the net.roundtrip span and captures both bodies,
// so the codec can be replayed on exactly what crossed the wire. The
// span ends once the whole response body has arrived.
type roundTripper struct {
	base http.RoundTripper
	t    *tracer
}

func (rt roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	t := rt.t
	if !t.on.Load() {
		return rt.base.RoundTrip(req)
	}
	if req.GetBody != nil {
		if b, err := req.GetBody(); err == nil {
			t.reqBody, _ = io.ReadAll(b)
			b.Close()
		}
	}
	id := t.rec.begin(t.callSpan.Load(), t.op.Load(), "net.roundtrip")
	t.rtSpan.Store(id)
	resp, err := rt.base.RoundTrip(req)
	if err == nil {
		var data []byte
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(data))
		t.respBody = data
	}
	t.rec.finish(id)
	return resp, err
}

// serveTracer wraps the Clarens host's handler with the clarens.serve
// span.
type serveTracer struct {
	inner http.Handler
	t     *tracer
}

func (h serveTracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := h.t
	if !t.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	op := t.op.Load()
	id := t.rec.begin(t.rtSpan.Load(), op, "clarens.serve")
	h.inner.ServeHTTP(w, r)
	t.rec.finish(id)
	t.mu.Lock()
	t.serveOf[op] = id
	t.mu.Unlock()
}

// typedArgs returns the arguments the typed client passes for o, in
// wire order, and newOut a pointer to the zero value of its result type.
func (d *deployment) typedArgs(c int, o op) []any {
	p := d.plans[c][o.plan]
	switch o.kind {
	case opJobStatus, opJob:
		return []any{p.site, p.condorID}
	case opTaskStatus, opPause, opResume:
		return []any{p.name, "t0"}
	case opPlan:
		return []any{p.name}
	case opEstimate:
		return []any{siteNames[o.site], profiles[o.profile]}
	case opGetState:
		return []any{keyName(c, o.key)}
	case opJobList:
		return []any{siteNames[o.site]}
	case opSetPriority:
		return []any{p.name, "t0", o.prio}
	case opSetState:
		return []any{keyName(c, o.key), o.value}
	case opCharge:
		return []any{gae.ChargeRequest{User: userOf(c), Site: siteNames[o.site], CPUSeconds: o.cpu, MB: o.mb}}
	case opSubmit:
		return []any{planSpec(o.name, o.cpu)}
	case opKill:
		return []any{o.name, "t0"}
	}
	return nil
}

func newOut(k opKind) any {
	switch k {
	case opJobStatus, opGetState, opSubmit:
		return new(string)
	case opJob:
		return new(gae.JobInfo)
	case opTaskStatus:
		return new(gae.SteeringStatus)
	case opPlan:
		return new(gae.PlanStatus)
	case opWeather:
		return new([]gae.SiteWeather)
	case opEstimate:
		return new(gae.RuntimeEstimate)
	case opJobList:
		return new([]gae.JobInfo)
	case opCharge:
		return new(float64)
	}
	return new(any)
}

// codecTimes accumulates the direct codec calls replayed on the bodies
// of the traced ops.
type codecTimes struct {
	encReq, decReq, encResp, decResp time.Duration
	reqBytes, respBytes              int
}

// replay runs the four codec steps directly, on exactly the bytes and
// values op o moved: what the client did to send it and read the reply,
// and what the server did to read it and send the reply.
func (ct *codecTimes) replay(args []any, res any, out any, reqBody, respBody []byte) error {
	req, err := xmlrpc.DecodeRequest(bytes.NewReader(reqBody))
	if err != nil {
		return err
	}
	t0 := time.Now()
	wire := make([]any, len(args))
	for i, a := range args {
		if wire[i], err = xmlrpc.Marshal(a); err != nil {
			return err
		}
	}
	if _, err = xmlrpc.EncodeRequest(req.Method, wire); err != nil {
		return err
	}
	t1 := time.Now()
	if _, err = xmlrpc.DecodeRequest(bytes.NewReader(reqBody)); err != nil {
		return err
	}
	t2 := time.Now()
	rv, err := xmlrpc.Marshal(res)
	if err != nil {
		return err
	}
	if _, err = xmlrpc.EncodeResponse(rv); err != nil {
		return err
	}
	t3 := time.Now()
	wv, err := xmlrpc.DecodeResponse(bytes.NewReader(respBody))
	if err != nil {
		return err
	}
	if err = xmlrpc.Unmarshal(wv, out); err != nil {
		return err
	}
	t4 := time.Now()
	ct.encReq += t1.Sub(t0)
	ct.decReq += t2.Sub(t1)
	ct.encResp += t3.Sub(t2)
	ct.decResp += t4.Sub(t3)
	ct.reqBytes += len(reqBody)
	ct.respBytes += len(respBody)
	return nil
}

// traceMix is the traffic of the traced slice: serve-write's whole mix
// from one client, which a sequential client can send without the
// ordering hazard the two-client split avoids.
func traceMix(write bool) []weight {
	if write {
		return mixWrite
	}
	return mixRead
}

// requestID names the i-th op of a traced or replayed slice, so the
// program's own spans can be joined to the harness's.
func requestID(i int) string { return fmt.Sprintf("slice-%d", i) }

// twin is what replaying the traced slice in-process measured: wall time
// and request count per op kind, and the heap allocations of the replay.
type twin struct {
	wall    [numOpKinds]time.Duration
	n       [numOpKinds]int
	mallocs uint64
}

// meanUS is the mean time, in µs, of the requests of the given kinds
// (of every kind when none is given; 0 when there were none).
func (tw *twin) meanUS(kinds ...opKind) float64 {
	var wall time.Duration
	var n int
	for k := opKind(0); k < numOpKinds; k++ {
		if len(kinds) == 0 || slices.Contains(kinds, k) {
			wall += tw.wall[k]
			n += tw.n[k]
		}
	}
	return ratio(float64(wall)/1e3, float64(n))
}

// localTwin replays the first n ops of the traced slice's stream through
// the in-process client of a fresh deployment (durable when dir is not
// empty).
func localTwin(ctx context.Context, write bool, seed int64, size serveSize, dir string, n int) (*twin, error) {
	d, err := newDeployment(size, dir)
	if err != nil {
		return nil, err
	}
	defer d.close()
	tw := &twin{}
	gen := newOpGen(seed, 0, traceMix(write), size)
	cl := d.g.Client(userOf(0))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		o := gen.next()
		octx := ctx
		if o.kind.mutating() {
			octx = gae.WithRequestID(ctx, requestID(i))
		}
		t0 := time.Now()
		_, ok := d.exec(octx, cl, 0, gen, o)
		tw.wall[o.kind] += time.Since(t0)
		tw.n[o.kind]++
		if !ok {
			return nil, fmt.Errorf("trace: %s failed on the in-process twin", opNames[o.kind])
		}
	}
	runtime.ReadMemStats(&m1)
	tw.mallocs = m1.Mallocs - m0.Mallocs
	return tw, nil
}

// histDelta returns how many observations, and what sum, a histogram
// family gained between two snapshots; counterDelta the same for a
// counter family.
func histDelta(before, after telemetry.Snapshot, name string) (count, sum float64) {
	for _, m := range after.Family(name) {
		count += float64(m.Count)
		sum += m.Sum
	}
	for _, m := range before.Family(name) {
		count -= float64(m.Count)
		sum -= m.Sum
	}
	return count, sum
}

func counterDelta(before, after telemetry.Snapshot, name string) float64 {
	return after.Total(name) - before.Total(name)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// wireSlice is one sequential client on a connection of its own to a
// fresh durable deployment, both wrapped with a tracer: what the traced
// slice runs on, and, with the tracer left off, its untraced twin.
type wireSlice struct {
	d    *deployment
	t    *tracer
	cl   *wireClient
	gen  *opGen
	wall time.Duration // time inside the slice's calls
	stop func()
}

func newWireSlice(ctx context.Context, write bool, seed int64, size serveSize, dir string) (*wireSlice, error) {
	d, err := newDeployment(size, dir)
	if err != nil {
		return nil, err
	}
	t := &tracer{rec: newRecorder(), serveOf: make(map[int64]int64)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	srv := &http.Server{Handler: serveTracer{inner: d.g.Handler(), t: t}}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) //nolint:errcheck // returns once the server is closed
	}()
	w := &wireSlice{d: d, t: t}
	w.stop = func() {
		if w.cl != nil {
			w.cl.close(ctx)
		}
		srv.Close()
		<-served
		d.close()
	}
	w.cl, err = dialWire(ctx, "http://"+ln.Addr().String(), 0, func(base http.RoundTripper) http.RoundTripper {
		return roundTripper{base: base, t: t}
	})
	if err != nil {
		w.stop()
		return nil, err
	}
	// Warm the connection and the read path with reads only: they leave
	// the deployment as fresh as the in-process twins that replay the slice.
	warm := newOpGen(seed, 0, mixRead, size)
	for i := 0; i < size.readWarm; i++ {
		if _, ok := d.exec(ctx, w.cl.Client, 0, warm, warm.next()); !ok {
			w.stop()
			return nil, fmt.Errorf("trace: warm-up op failed")
		}
	}
	w.gen = newOpGen(seed, 0, traceMix(write), size)
	return w, nil
}

// send issues the slice's i-th request and returns it with its typed
// result.
func (w *wireSlice) send(ctx context.Context, i int) (op, any, error) {
	o := w.gen.next()
	if o.kind.mutating() {
		ctx = gae.WithRequestID(ctx, requestID(i))
	}
	t0 := time.Now()
	res, ok := w.d.exec(ctx, w.cl.Client, 0, w.gen, o)
	w.wall += time.Since(t0)
	if !ok {
		return o, nil, fmt.Errorf("trace: %s failed on the slice's connection", opNames[o.kind])
	}
	return o, res, nil
}

// overheadBlock is how many requests the traced slice and its untraced
// twin send in turn: short enough that both see the box at one speed.
const overheadBlock = 500

// traceServe produces the per-layer metrics of a serving workload. sr is
// the two-client phase already run (latency percentiles, journal and
// checkpoint counters, recovery). The rest comes from one sequential
// client sending the first size.traceOps ops of the mix over a traced
// connection to a traced handler, the same ops sent untraced to a second
// fresh deployment, block by block in turn, for the overhead figure, and
// the same ops replayed in-process on a durable and on a storeless twin.
func traceServe(ctx context.Context, write bool, seed int64, size serveSize, scratch string, sr *serveResult, rep *report) ([]span, error) {
	n := size.traceOps
	traced, err := newWireSlice(ctx, write, seed, size, filepath.Join(scratch, "journal-traced"))
	if err != nil {
		return nil, err
	}
	defer traced.stop()
	plain, err := newWireSlice(ctx, write, seed, size, filepath.Join(scratch, "journal-plain"))
	if err != nil {
		return nil, err
	}
	defer plain.stop()
	d, t := traced.d, traced.t

	var codec codecTimes
	program := make(map[string]telemetry.Span)
	drain := func() {
		for _, s := range d.g.Trace().Recent(0) {
			if strings.HasPrefix(s.RequestID, "slice-") {
				program[s.RequestID] = s
			}
		}
	}
	t.on.Store(true)
	for lo := 0; lo < n; lo += overheadBlock {
		hi := min(lo+overheadBlock, n)
		for i := lo; i < hi; i++ {
			t.op.Store(int64(i + 1))
			call := t.rec.begin(0, int64(i+1), "gae.call")
			t.callSpan.Store(call)
			o, res, err := traced.send(ctx, i)
			if err != nil {
				return nil, err
			}
			t.rec.finish(call)
			if err := codec.replay(d.typedArgs(0, o), res, newOut(o.kind), t.reqBody, t.respBody); err != nil {
				return nil, fmt.Errorf("trace: replaying the codec on %s: %w", opNames[o.kind], err)
			}
			if i%128 == 127 {
				drain()
			}
		}
		for i := lo; i < hi; i++ {
			if _, _, err := plain.send(ctx, i); err != nil {
				return nil, err
			}
		}
	}
	t.on.Store(false)
	drain()
	// The program's own spans, placed under the serve span of their op.
	var handlerMS, journalMS float64
	journaled := 0
	for i := 0; i < n; i++ {
		ps, ok := program[requestID(i)]
		if !ok {
			continue
		}
		journaled++
		start := t.rec.at(ps.Start)
		rpc := t.rec.add(t.serveOf[int64(i+1)], int64(i+1), "core.rpc", start, start+int64(ps.TotalMillis*1e6))
		at := start
		for _, st := range ps.Stages {
			end := at + int64(st.Millis*1e6)
			t.rec.add(rpc, int64(i+1), "core."+st.Name, at, end)
			at = end
			switch st.Name {
			case "handler":
				handlerMS += st.Millis
			case "journal":
				journalMS += st.Millis
			}
		}
	}

	// durable.Store.Append called directly on the records the slice
	// journaled.
	var appendWall time.Duration
	appended := 0
	if raw, rerr := os.ReadFile(filepath.Join(d.dir, durable.JournalFile)); rerr == nil {
		ops, _ := durable.ScanJournalOps(bytes.NewReader(raw))
		store, oerr := durable.Open(filepath.Join(scratch, "journal-append"))
		if oerr != nil {
			return nil, oerr
		}
		for _, jo := range ops {
			t0 := time.Now()
			if _, aerr := store.Append(jo.Time, jo.User, jo.Service, jo.Method, jo.RequestID, jo.Args); aerr != nil {
				store.Close()
				return nil, aerr
			}
			appendWall += time.Since(t0)
			appended++
		}
		store.Close()
	}
	idemHits, _ := d.g.Telemetry.Snapshot().Value("idem_hits_total", "")
	retries := traced.cl.TransportStats().Retries + plain.cl.TransportStats().Retries

	call, err := localTwin(ctx, write, seed, size, filepath.Join(scratch, "journal-twin"), n)
	if err != nil {
		return nil, err
	}
	apply, err := localTwin(ctx, write, seed, size, "", n)
	if err != nil {
		return nil, err
	}

	spans := t.rec.all()
	tree := buildTree(spans)
	dur := tree.durByName()
	self, _ := tree.selfByName()
	perOp := func(ns int64) float64 { return float64(ns) / 1e3 / float64(n) }
	coreCall := call.meanUS()
	serveUS := perOp(dur["clarens.serve"])
	decReq, encResp := perOp(int64(codec.decReq)), perOp(int64(codec.encResp))

	rep.set("gae.call_us", perOp(dur["gae.call"]))
	rep.set("gae.self_us", perOp(self["gae.call"]))
	rep.set("gae.lat_p50_us", percentileUS(sr.lat, 0.50))
	rep.set("gae.lat_p99_us", percentileUS(sr.lat, 0.99))
	rep.set("gae.retries", float64(retries))
	rep.set("net.self_us", perOp(self["net.roundtrip"]))
	rep.set("xmlrpc.encode_request_us", perOp(int64(codec.encReq)))
	rep.set("xmlrpc.decode_request_us", decReq)
	rep.set("xmlrpc.encode_response_us", encResp)
	rep.set("xmlrpc.decode_response_us", perOp(int64(codec.decResp)))
	rep.set("xmlrpc.request_bytes", float64(codec.reqBytes)/float64(n))
	rep.set("xmlrpc.response_bytes", float64(codec.respBytes)/float64(n))
	rep.set("clarens.serve_us", serveUS)
	rep.set("clarens.self_us", serveUS-decReq-encResp-coreCall)
	rep.set("core.call_us", coreCall)
	rep.set("core.apply_us", apply.meanUS())
	rep.set("core.handler_us", ratio(handlerMS*1e3, float64(journaled)))
	rep.set("core.journal_us", ratio(journalMS*1e3, float64(journaled)))
	rep.set("core.mallocs_per_rpc", float64(call.mallocs)/float64(n))
	rep.set("core.idem_hits", idemHits)
	rep.set("steering.apply_us", apply.meanUS(opTaskStatus, opSetPriority, opPause, opResume, opKill))
	rep.set("jobmon.apply_us", apply.meanUS(opJobStatus, opJob, opJobList))
	rep.set("estimator.apply_us", apply.meanUS(opEstimate))
	rep.set("scheduler.submit_us", apply.meanUS(opSubmit))
	rep.set("monalisa.weather_us", apply.meanUS(opWeather))
	rep.set("quota.charge_us", apply.meanUS(opCharge))

	appends := counterDelta(sr.before, sr.after, "journal_appends_total")
	flushes := counterDelta(sr.before, sr.after, "journal_flushes_total")
	fsyncN, fsyncSum := histDelta(sr.before, sr.after, "journal_fsync_seconds")
	_, batchBytes := histDelta(sr.before, sr.after, "journal_batch_bytes")
	ckptN, ckptSum := histDelta(sr.before, sr.after, "checkpoint_seconds")
	var ckptBytes float64
	if ckptN > 0 {
		ckptBytes, _ = sr.after.Value("checkpoint_bytes", "")
	}
	rep.set("durable.append_us", ratio(float64(appendWall)/1e3, float64(appended)))
	rep.set("durable.fsync_us", ratio(fsyncSum*1e6, fsyncN))
	rep.set("durable.batch_records", ratio(appends, flushes))
	rep.set("durable.journal_bytes_per_op", ratio(batchBytes, appends))
	rep.set("durable.checkpoint_ms", ratio(ckptSum*1e3, ckptN))
	rep.set("durable.checkpoint_bytes", ckptBytes)
	rep.set("durable.checkpoint_stall_us", float64(sr.stall)/1e3)
	rep.set("durable.recover_ops_per_s", ratio(float64(sr.recoverOps), sr.recoverWall.Seconds()))
	rep.set("durable.journal_tmpfs", onTmpfs(scratch))
	rep.set("trace.overhead_share", ratio(float64(traced.wall-plain.wall), float64(plain.wall)))
	// What the rows measured on their own (the four codec steps called
	// directly, the in-process call, and the transport's self time)
	// explain of the outermost span; the rest is the client's and the
	// Clarens host's glue, which only the derived rows hold.
	explained := perOp(int64(codec.encReq+codec.decReq+codec.encResp+codec.decResp)+self["net.roundtrip"]) + coreCall
	rep.set("trace.coverage", ratio(explained, perOp(dur["gae.call"])))
	rep.idle("simgrid", "condor", "classad", "fairshare")
	return spans, nil
}
