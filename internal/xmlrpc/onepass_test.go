package xmlrpc

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// pkg/gae imports this package, so its wire types cannot be named here:
// mirrorJob, mirrorTask and mirrorPlan repeat gae.JobInfo, gae.TaskAssignment
// and gae.PlanStatus tag for tag (pkg/gae's own differential,
// TestOnePassMatchesTwoStep, runs on the real ones).
type mirrorJob struct {
	ID       int    `xmlrpc:"id"`
	Pool     string `xmlrpc:"pool"`
	Status   string `xmlrpc:"status"`
	Owner    string `xmlrpc:"owner"`
	Cmd      string `xmlrpc:"cmd"`
	Priority int    `xmlrpc:"priority"`
	Env      string `xmlrpc:"env"`

	QueuePosition     int     `xmlrpc:"queue_position"`
	EstimatedRuntime  float64 `xmlrpc:"estimated_runtime"`
	RemainingEstimate float64 `xmlrpc:"remaining_estimate"`
	WallclockSeconds  float64 `xmlrpc:"wallclock_seconds"`
	ElapsedSeconds    float64 `xmlrpc:"elapsed_seconds"`

	CPUSeconds float64 `xmlrpc:"cpu_seconds"`
	Progress   float64 `xmlrpc:"progress"`
	InputMB    float64 `xmlrpc:"input_mb"`
	OutputMB   float64 `xmlrpc:"output_mb"`
	Node       string  `xmlrpc:"node"`

	SubmitTime     time.Time `xmlrpc:"submit_time,omitempty"`
	StartTime      time.Time `xmlrpc:"start_time,omitempty"`
	CompletionTime time.Time `xmlrpc:"completion_time,omitempty"`
}

type mirrorTask struct {
	Task     string `xmlrpc:"task"`
	Site     string `xmlrpc:"site"`
	CondorID int    `xmlrpc:"condorid"`
	State    string `xmlrpc:"state"`
	Attempts int    `xmlrpc:"attempts"`
}

type mirrorPlan struct {
	Name      string       `xmlrpc:"name"`
	Owner     string       `xmlrpc:"owner"`
	Done      bool         `xmlrpc:"done"`
	Succeeded bool         `xmlrpc:"succeeded"`
	Tasks     []mirrorTask `xmlrpc:"tasks"`
}

// typedDestinations is a zero value of every type the differential decodes
// each accepted response into.
var typedDestinations = []any{any(nil), map[string]any(nil), mirrorJob{}, []mirrorJob(nil), mirrorPlan{}, sample{}, exotic{}}

// scrubNaN replaces every NaN in v, which reflect.DeepEqual would hold
// unequal to itself, with a double no document is likely to carry.
func scrubNaN(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if v.CanSet() && math.IsNaN(v.Float()) {
			v.SetFloat(-0.1234567890123e-300)
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			if v.Kind() == reflect.Interface && v.CanSet() {
				// An interface's content is not settable in place.
				e := reflect.New(v.Elem().Type()).Elem()
				e.Set(v.Elem())
				scrubNaN(e)
				v.Set(e)
				return
			}
			scrubNaN(v.Elem())
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scrubNaN(v.Index(i))
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			scrubNaN(e)
			v.SetMapIndex(k, e)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scrubNaN(v.Field(i))
		}
	}
}

// checkDecodeInto holds the one walk to the two passes it replaced: data
// decoded straight into a new value of every typed destination equals
// Unmarshal of tree (the document's canonical tree, by whichever decoder)
// into another, or both fail, and a failure leaves the destination zero.
func checkDecodeInto(t *testing.T, data []byte, tree any) {
	t.Helper()
	for _, zero := range typedDestinations {
		typ := reflect.TypeOf(&zero).Elem()
		if zero != nil {
			typ = reflect.TypeOf(zero)
		}
		one, two := reflect.New(typ), reflect.New(typ)
		errOne := decodeResponse(data, one.Interface())
		errTwo := Unmarshal(tree, two.Interface())
		if (errOne == nil) != (errTwo == nil) {
			t.Fatalf("%q into %s: one pass err = %v, Unmarshal err = %v", data, typ, errOne, errTwo)
		}
		if errOne != nil {
			if !one.Elem().IsZero() {
				t.Fatalf("%q into %s: a failed decode left %+v", data, typ, one.Elem())
			}
			continue
		}
		scrubNaN(one.Elem())
		scrubNaN(two.Elem())
		if !reflect.DeepEqual(one.Elem().Interface(), two.Elem().Interface()) {
			t.Fatalf("%q into %s:\none pass  %+v\nUnmarshal %+v", data, typ, one.Elem(), two.Elem())
		}
	}
}

// typedSeeds are responses shaped like the typed destinations, the legal
// oddities a direct walk could get wrong among them.
func typedSeeds(t testing.TB) [][]byte {
	member := func(name, value string) string {
		return "<member><name>" + name + "</name><value>" + value + "</value></member>"
	}
	kid := "<struct>" + member("label", "k") + member("score", "<int>2</int>") + "</struct>"
	var seeds [][]byte
	for _, value := range []string{
		"<struct><member><value><int>7</int></value><name>id</name></member>" + member("pool", "siteA") + "</struct>",
		"<struct><member><name>id</name><value><int>7</int></value><name>priority</name></member></struct>",
		"<struct>" + member("id", "<int>8</int>") + member("id", "<int>7</int>") + member("count", "x") + member("count", "<i4>3</i4>") + "</struct>",
		"<struct>" + member("child", kid) + member("child", "<struct>"+member("score", "<double>1</double>")+"</struct>") + "</struct>",
		"<struct>" + member("child", "<nil/>") + member("kids", "<array><data><value>"+kid+"</value><value><nil/></value></data></array>") + "</struct>",
		"<struct>" + member("id", "<double>7.0</double>") + member("count", "<double>-3</double>") + member("progress", "<int>1</int>") + member("ratio", "<i8>4</i8>") + "</struct>",
		"<struct>" + member("id", "<double>7.5</double>") + "</struct>",
		"<struct>" + member("tasks", "<array><value><struct>"+member("task", "t0")+member("condorid", "<int>7</int>")+"</struct></value></array>") + member("done", "<boolean>true</boolean>") + "</struct>",
		"<array><data><value><struct>" + member("id", "<int>1</int>") + member("submit_time", "<dateTime.iso8601>20050415T10:30:45</dateTime.iso8601>") + "</struct></value></data></array>",
		"<struct>" + member("m", "<struct>"+member("a", "<int>1</int>")+member("a", "<int>2</int>")+"</struct>") + member("pair", "<array><data><value><double>1.5</double></value><value><int>2</int></value></data></array>") +
			member("raw", "<base64>Z2Fl</base64>") + member("n", "<int>3</int>") + member("u", "<int>200</int>") + "</struct>",
		"<struct>" + member("u", "<int>256</int>") + "</struct>",
		"<struct>" + member("pair", "<array><data><value><double>1.5</double></value></data></array>") + "</struct>",
	} {
		seeds = append(seeds, []byte("<methodResponse><params><param><value>"+value+"</value></param></params></methodResponse>"))
	}
	golden, err := filepath.Glob("../../pkg/gae/testdata/wire/*.response.xml")
	if err != nil || len(golden) == 0 {
		t.Fatalf("no golden responses under pkg/gae/testdata/wire: %v", err)
	}
	for _, path := range golden {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, doc)
	}
	return seeds
}

type ExoticBase struct {
	N int `xmlrpc:"n"`
}

type label string

// exotic is the kinds the service contract does not use: a map, arrays, an
// interface, a pointer to a pointer, an embedded struct, unsigned and named
// types, and two fields of one wire name.
type exotic struct {
	ExoticBase
	M     map[label]int `xmlrpc:"m"`
	Pair  [2]float64    `xmlrpc:"pair,omitempty"`
	Raw   []byte        `xmlrpc:"raw"`
	Sum   [4]byte       `xmlrpc:"sum"`
	Any   any           `xmlrpc:"any"`
	PP    **nested      `xmlrpc:"pp,omitempty"`
	U     uint8         `xmlrpc:"u"`
	L     label         `xmlrpc:"l"`
	First string        `xmlrpc:"same,omitempty"`
	Again string        `xmlrpc:"same,omitempty"`
	F32   float32       `xmlrpc:"f32"`
}

// TestOnePassMatchesTwoStepKinds is the differential on the kinds pkg/gae's
// test cannot reach: EncodeResponse(v) is EncodeResponse(Marshal(v)) byte
// for byte or both fail, and what it wrote decodes the same both ways.
func TestOnePassMatchesTwoStepKinds(t *testing.T) {
	kid := &nested{Label: "k", Score: 1}
	type hole struct {
		C chan int `xmlrpc:"c"`
	}
	type shadow struct {
		First  uint64 `xmlrpc:"same"`
		Second string `xmlrpc:"same,omitempty"`
	}
	for i, v := range []any{
		exotic{},
		exotic{ExoticBase: ExoticBase{N: 3}, M: map[label]int{"b": 2, "a": 1, "<": 0}, Pair: [2]float64{1.5, 2}, Raw: []byte("gae"),
			Sum: [4]byte{1, 2, 3, 255}, Any: []any{1, "two", map[string]any{"k": nil}}, PP: &kid, U: 200, L: "l", First: "first", F32: 0.25},
		exotic{First: "first", Again: "again", Any: sample{Name: "s", Tags: []string{}}},
		exotic{Again: "again", Any: &kid, M: map[label]int{}},
		sample{Name: "plan", Tags: []string{"a"}, Kids: []nested{{}, {Label: "k"}}, Child: kid, Started: time.Unix(1104537600, 0)},
		[]*nested{kid, nil}, map[string][]int{"a": {1}, "b": nil}, [2]string{"x", "y"}, &kid,
		uint64(7), uint64(math.MaxInt32) + 1, int64(math.MinInt32) - 1, float32(0.5), math.Inf(1), int8(-3), label("l"), time.Unix(1104537600, 0),
		shadow{First: 1 << 40, Second: "second"}, shadow{First: 1 << 40}, shadow{First: 7},
		hole{}, []any{hole{}}, map[int]string{1: "a"}, func() {}, complex(1, 2),
	} {
		w, werr := Marshal(v)
		var want []byte
		if werr == nil {
			want, werr = EncodeResponse(w)
		}
		doc, err := EncodeResponse(v)
		if (err == nil) != (werr == nil) || !bytes.Equal(doc, want) {
			t.Fatalf("value %d (%T): EncodeResponse(v) = %s, %v\nEncodeResponse(Marshal(v)) = %s, %v", i, v, doc, err, want, werr)
		}
		if err != nil {
			continue
		}
		tree, err := DecodeResponse(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("value %d (%T): %v", i, v, err)
		}
		checkDecodeInto(t, doc, tree)
		one, two := reflect.New(reflect.TypeOf(v)), reflect.New(reflect.TypeOf(v))
		errOne, errTwo := decodeResponse(doc, one.Interface()), Unmarshal(tree, two.Interface())
		if (errOne == nil) != (errTwo == nil) || errOne == nil && !reflect.DeepEqual(one.Elem().Interface(), two.Elem().Interface()) {
			t.Fatalf("value %d (%T):\none pass  %+v, %v\nUnmarshal %+v, %v", i, v, one.Elem(), errOne, two.Elem(), errTwo)
		}
	}
	for _, doc := range typedSeeds(t) {
		tree, err := DecodeResponse(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		checkDecodeInto(t, doc, tree)
	}
}

// TestServeAllocCeiling gates what one served monitoring reply costs in
// allocations, net/http's connection handling apart: the request read and
// decoded, the handler's typed result encoded in the scratch buffer and
// written from it. The count repeats exactly.
func TestServeAllocCeiling(t *testing.T) {
	job := mirrorJob{ID: 4711, Pool: "siteA", Status: "running", Owner: "alice", Cmd: "cmsRun -p <cfg> && echo 'done'",
		Priority: -3, Env: "A=1;B=\"two\"", QueuePosition: 2, EstimatedRuntime: 1234.5, CPUSeconds: 3141.59265358979,
		Progress: 0.75, Node: "siteA-node-07", SubmitTime: time.Date(2005, 4, 15, 10, 30, 45, 0, time.UTC)}
	host := table{"jobmon.info": func(_ context.Context, args []any) (any, error) { return job, nil }}
	body, err := EncodeRequest("jobmon.info", []any{"siteA", 4711})
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeResponse(job)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/", rd)
	rec := httptest.NewRecorder()
	serve := func() {
		rd.Reset(body)
		rec.Body.Reset()
		host.ServeHTTP(rec, req)
	}
	serve()
	if !bytes.Equal(rec.Body.Bytes(), want) || rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) {
		t.Fatalf("served %s (Content-Length %s)\nwant %s", rec.Body.Bytes(), rec.Header().Get("Content-Length"), want)
	}
	if n := testing.AllocsPerRun(100, serve); n > serveAllocs && !raceEnabled {
		t.Errorf("one ServeHTTP round for a JobInfo reply: %v allocations, ceiling %d", n, serveAllocs)
	}
}

// serveAllocs is the measured count (12 with the request read into a
// buffer of its own rather than a pooled one; 29 with the handler's result
// marshaled into a tree and the encoded document cloned out of the scratch
// buffer before it was written).
const serveAllocs = 11
