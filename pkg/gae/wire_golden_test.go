package gae_test

import (
	"bytes"
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/clarens"
	"repro/internal/xmlrpc"
	"repro/pkg/gae"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire/*.xml from the current encoder")

// wireJob is a JobInfo with every kind of member set, strings that need
// escaping included, and the instant its timestamps derive from.
func wireJob() (time.Time, gae.JobInfo) {
	at := time.Date(2005, 4, 15, 10, 30, 45, 0, time.UTC)
	return at, gae.JobInfo{
		ID: 4711, Pool: "siteA", Status: "running", Owner: "alice", Cmd: "cmsRun -p <cfg> && echo 'done'",
		Priority: -3, Env: "A=1;B=\"two\"", QueuePosition: 2, EstimatedRuntime: 1234.5,
		RemainingEstimate: 0.1, WallclockSeconds: 1e-7, ElapsedSeconds: 3600, CPUSeconds: 3141.59265358979,
		Progress: 0.75, InputMB: 2048, OutputMB: 1e21, Node: "siteA-node-07",
		SubmitTime: at, StartTime: at.Add(90 * time.Second),
	}
}

// wireValues is the table TestWireGolden pins, by golden file name: a value
// of every type of the service contract.
func wireValues() map[string]any {
	at, job := wireJob()
	return map[string]any{
		"job_info":  job,
		"job_list":  []gae.JobInfo{job, {ID: 1, Pool: "siteB", Status: "idle", Owner: "bøb", Cmd: "a\r\nb\tc"}},
		"job_empty": []gae.JobInfo{},
		"steering_status": gae.SteeringStatus{Plan: "p", Task: "t0", Owner: "alice", Site: "siteA", CondorID: 7,
			State: "running", Attempts: 2, Job: &job},
		"steering_status_no_job": gae.SteeringStatus{Plan: "p", Task: "t1", State: "pending"},
		"plan_status": gae.PlanStatus{Name: "p", Owner: "alice", Done: true, Tasks: []gae.TaskAssignment{
			{Task: "t0", Site: "siteA", CondorID: 7, State: "completed", Attempts: 1}}},
		"plan_spec": gae.PlanSpec{Name: "p", Tasks: []gae.TaskSpec{{ID: "t0", CPUSeconds: 20, Queue: "short",
			Nodes: 1, DependsOn: []string{"a", "b"}, Inputs: []gae.FileSpec{{Name: "d.root", SizeMB: 12.5}},
			Requirements: `Arch == "x86_64" && Memory > 512`, Checkpointable: true}, {ID: "t1"}}},
		"move_result":       gae.MoveResult{Site: "siteB", CondorID: 9},
		"notification":      []gae.Notification{{Time: at, Plan: "p", Task: "t0", Kind: "moved", Message: "siteA → siteB"}},
		"task_profile":      gae.TaskProfile{Queue: "short", Partition: "compute", Nodes: 4, JobType: "batch", ReqHours: 2.5},
		"runtime_estimate":  gae.RuntimeEstimate{Seconds: 812.25, Similar: 17, Statistic: "mean"},
		"queue_estimate":    gae.QueueEstimate{Seconds: 60, TasksAhead: 3},
		"transfer_estimate": gae.TransferEstimate{Seconds: 10.5, BandwidthMBps: 100},
		"cost_quote":        gae.CostQuote{Site: "siteB", Cost: 0.02},
		"charge_request":    gae.ChargeRequest{User: "alice", Site: "siteA", CPUSeconds: 20, MB: 1.5},
		"replica_locations": []gae.ReplicaLocation{{Site: "siteA", SizeMB: 100}},
		"replica_choice":    gae.ReplicaChoice{Site: "siteA", SizeMB: 100, TransferSeconds: 1.25},
		"metric_points":     []gae.MetricPoint{{Time: at, Value: 0.5}, {Time: at.Add(time.Minute), Value: -0.5}},
		"grid_events":       []gae.GridEvent{{Time: at, Kind: "submit", Detail: "job 1"}},
		"site_weather":      []gae.SiteWeather{{Site: "siteA", Load: 0.25, Running: 3, Free: 9}},
		"scalars":           []any{"s", 1, -2.5, true, nil, []byte("gae"), at, map[string]string{"k": "v"}},
	}
}

// TestWireGolden pins the bytes the encoder puts on the wire for the
// service contract's types. The files under testdata/wire were written by
// the encoding/xml-era encoder (the bytes.Buffer one of PR 14); a faster
// encoder has to emit exactly the same documents.
func TestWireGolden(t *testing.T) {
	for name, v := range wireValues() {
		w, err := xmlrpc.Marshal(v)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", name, err)
		}
		resp, err := xmlrpc.EncodeResponse(w)
		if err != nil {
			t.Fatalf("%s: EncodeResponse: %v", name, err)
		}
		req, err := xmlrpc.EncodeRequest("svc."+name, []any{w, name, 42})
		if err != nil {
			t.Fatalf("%s: EncodeRequest: %v", name, err)
		}
		for kind, got := range map[string][]byte{"response": resp, "request": req} {
			path := filepath.Join("testdata", "wire", name+"."+kind+".xml")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s %s differs from the parent commit's bytes:\n got %s\nwant %s", name, kind, got, want)
			}
		}
	}
	// -32402 is a code no constant names: the encoder passes any code through.
	fault := xmlrpc.EncodeFault(xmlrpc.NewFault(-32402, `user "alice" is <over> quota & blocked`))
	path := filepath.Join("testdata", "wire", "fault.xml")
	if *updateGolden {
		if err := os.WriteFile(path, fault, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want, err := os.ReadFile(path); err != nil || !bytes.Equal(fault, want) {
		t.Errorf("fault differs from the parent commit's bytes (%v):\n got %s\nwant %s", err, fault, want)
	}
}

// TestRegistryDiscoverWireGolden pins the bytes a Clarens host serves for
// registry.discover, the built-in a federation resolves services with.
func TestRegistryDiscoverWireGolden(t *testing.T) {
	srv := clarens.NewServer("host", nil)
	srv.SetBaseURL("http://host.example:8080/")
	noop := func(context.Context, []any) (any, error) { return true, nil }
	srv.RegisterService("estimator", `runtime <estimates> & "queue" times`,
		map[string]xmlrpc.Handler{"runtime": noop, "queuetime": noop})
	req, err := xmlrpc.EncodeRequest("registry.discover", []any{"estimator", false})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(req)))
	got := rec.Body.Bytes()
	path := filepath.Join("testdata", "wire", "registry_discover.response.xml")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("registry.discover reply differs from the golden bytes (%v):\n got %s\nwant %s", err, got, want)
	}
}

// TestWireAllocCeilings is the deterministic gate on the codec's cost for
// the commonest monitoring reply, one JobInfo, and the largest, a list of
// sixteen: allocation counts repeat exactly where wall time does not. The
// encoding/xml decoder needed 600 allocations for one JobInfo and the
// bytes.Buffer encoder 65. The two-step legs are the exported API the
// benchmark's codec replay still calls; the one-pass legs are what a
// served call costs.
func TestWireAllocCeilings(t *testing.T) {
	_, job := wireJob()
	encode := func() []byte {
		w, err := xmlrpc.Marshal(job)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := xmlrpc.EncodeResponse(w)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	doc := encode()
	if n := testing.AllocsPerRun(100, func() { encode() }); n > 45 {
		t.Errorf("Marshal+EncodeResponse of one JobInfo: %v allocations, ceiling 45", n)
	}
	rd := bytes.NewReader(doc)
	decode := func() {
		rd.Reset(doc)
		if _, err := xmlrpc.DecodeResponse(rd); err != nil {
			t.Fatal(err)
		}
	}
	// 57 while the scanner nested a callback per element.
	if n := testing.AllocsPerRun(100, decode); n > 56 {
		t.Errorf("DecodeResponse of one JobInfo: %v allocations, ceiling 56", n)
	}

	var boxed any = job
	if n := testing.AllocsPerRun(100, func() { xmlrpc.EncodeResponse(boxed) }); n > 1 && !raceEnabled {
		t.Errorf("EncodeResponse of one JobInfo in one pass: %v allocations, ceiling 1 (the document)", n)
	}
	var out gae.JobInfo
	decodeInto := func() {
		rd.Reset(doc)
		if err := xmlrpc.DecodeResponseInto(rd, &out); err != nil {
			t.Fatal(err)
		}
	}
	// 12 as the tree leg's 57 was; 11 is the buffer and its two growths
	// (the reader's length unknown), the six strings and the copies of the
	// two that hold entities.
	if n := testing.AllocsPerRun(100, decodeInto); n > 11 || out != job {
		t.Errorf("DecodeResponseInto one JobInfo: %v allocations, ceiling 11; decoded %+v", n, out)
	}
	list := jobList(job, 16)
	listDoc, err := xmlrpc.EncodeResponse(list)
	if err != nil {
		t.Fatal(err)
	}
	var listOut []gae.JobInfo
	decodeList := func() {
		rd.Reset(listDoc)
		if err := xmlrpc.DecodeResponseInto(rd, &listOut); err != nil {
			t.Fatal(err)
		}
	}
	// 146 as the tree leg's 57 was, with a slice for the one <param>
	// besides the destination.
	if n := testing.AllocsPerRun(20, decodeList); n > 145 || !slices.Equal(listOut, list) {
		t.Errorf("DecodeResponseInto sixteen JobInfos: %v allocations, ceiling 145", n)
	}

	// One call of the typed client over a transport that costs nothing:
	// request built, headers set, reply read and decoded.
	c, err := gae.Dial(context.Background(), "http://stub.invalid/", gae.WithToken("t"),
		gae.WithTransport(&stubTransport{bodies: [][]byte{doc}}))
	if err != nil {
		t.Fatal(err)
	}
	call := func() {
		if got, err := c.Job(context.Background(), "siteA", 4711); err != nil || got != job {
			t.Fatalf("Job over the stub = %+v, %v", got, err)
		}
	}
	if n := testing.AllocsPerRun(100, call); n > clientCallAllocs && !raceEnabled {
		t.Errorf("one jobmon.info call over a stub transport: %v allocations, ceiling %d", n, clientCallAllocs)
	}
}

// jobList is n copies of job: the largest monitoring reply, a JobList.
func jobList(job gae.JobInfo, n int) []gae.JobInfo {
	list := make([]gae.JobInfo, n)
	for i := range list {
		list[i] = job
	}
	return list
}

// BenchmarkDecodeReply times the client's decoding of two monitoring
// replies into their typed destinations: the golden SteeringStatus reply
// of a TaskStatus call (2 283 bytes) and a JobList reply of sixteen jobs.
func BenchmarkDecodeReply(b *testing.B) {
	_, job := wireJob()
	jobs, err := xmlrpc.EncodeResponse(jobList(job, 16))
	if err != nil {
		b.Fatal(err)
	}
	steering, err := os.ReadFile(filepath.Join("testdata", "wire", "steering_status.response.xml"))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		doc  []byte
		out  any
	}{
		{"steering_status", steering, new(gae.SteeringStatus)},
		{"job_list_16", jobs, new([]gae.JobInfo)},
	} {
		b.Run(c.name, func(b *testing.B) {
			rd := bytes.NewReader(c.doc)
			b.SetBytes(int64(len(c.doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(c.doc)
				if err := xmlrpc.DecodeResponseInto(rd, c.out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// clientCallAllocs is the measured cost of one typed call, net/http's
// share and the stub's three included (52 with the reply read into a
// buffer of its own rather than a pooled one; 103 with the endpoint parsed
// and the header keys canonicalized per call, and argument and reply built
// twice).
const clientCallAllocs = 50
