package gae_test

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/xmlrpc"
	"repro/pkg/gae"
)

// The codec converts between typed values and documents in one pass each
// way; Marshal → EncodeResponse and DecodeResponse → Unmarshal, the two
// passes it replaced in production, stay exported and are the oracle here.

// wireTypes is a zero value of every type of the service contract, the
// slices the services return them in and the bare results.
var wireTypes = []any{
	gae.TaskSpec{}, gae.FileSpec{}, gae.PlanSpec{}, gae.TaskAssignment{}, gae.PlanStatus{}, gae.JobInfo{},
	gae.SteeringStatus{}, gae.MoveResult{}, gae.Notification{}, gae.TaskProfile{}, gae.RuntimeEstimate{},
	gae.QueueEstimate{}, gae.TransferEstimate{}, gae.CostQuote{}, gae.ChargeRequest{}, gae.ReplicaLocation{},
	gae.ReplicaChoice{}, gae.MetricPoint{}, gae.GridEvent{}, gae.SiteWeather{},
	[]gae.JobInfo{}, []gae.Notification{}, []gae.ReplicaLocation{}, []gae.MetricPoint{}, []gae.GridEvent{},
	[]gae.SiteWeather{}, []string{}, "", 0, 0.0, false,
}

var fillStrings = []string{"", "siteA", "bøb → ünï", "a\r\nb\tc\r", `<&>'"`, " padded ", "]]>", "x\u2028y"}
var fillInts = []int64{0, 1, -1, math.MaxInt32, math.MinInt32, 4711}

// fill sets rv to a seeded random value: nil and empty slices, nil
// pointers, zero times, strings that need escaping and the ints at the
// edge of i4 all come up.
func fill(rv reflect.Value, rng *rand.Rand) {
	switch rv.Kind() {
	case reflect.String:
		rv.SetString(fillStrings[rng.Intn(len(fillStrings))])
	case reflect.Int:
		rv.SetInt(fillInts[rng.Intn(len(fillInts))])
	case reflect.Float64:
		rv.SetFloat([]float64{0, 1, -2.5, 1e21, 1e-7, 3141.59265358979, float64(rng.Intn(1000))}[rng.Intn(7)])
	case reflect.Bool:
		rv.SetBool(rng.Intn(2) == 0)
	case reflect.Pointer:
		if rng.Intn(3) > 0 {
			rv.Set(reflect.New(rv.Type().Elem()))
			fill(rv.Elem(), rng)
		}
	case reflect.Slice:
		if n := rng.Intn(5) - 1; n >= 0 { // -1: nil
			rv.Set(reflect.MakeSlice(rv.Type(), n, n))
			for i := 0; i < n; i++ {
				fill(rv.Index(i), rng)
			}
		}
	case reflect.Struct:
		if rv.Type() == reflect.TypeOf(time.Time{}) {
			if rng.Intn(3) > 0 {
				rv.Set(reflect.ValueOf(time.Unix(rng.Int63n(4e9), 0).UTC()))
			}
			return
		}
		for i := 0; i < rv.NumField(); i++ {
			fill(rv.Field(i), rng)
		}
	default:
		panic("fill: no rule for " + rv.Type().String())
	}
}

// checkOnePass holds the one-pass walk to the two-step oracle for one
// value, as a response and as a request argument.
func checkOnePass(t *testing.T, what string, v any) {
	t.Helper()
	w, werr := xmlrpc.Marshal(v)
	var want []byte
	if werr == nil {
		want, werr = xmlrpc.EncodeResponse(w)
	}
	doc, err := xmlrpc.EncodeResponse(v)
	if (err == nil) != (werr == nil) || !bytes.Equal(doc, want) {
		t.Fatalf("%s: EncodeResponse(v) = %s, %v\nEncodeResponse(Marshal(v)) = %s, %v", what, doc, err, want, werr)
	}
	if err != nil {
		return
	}
	req, err := xmlrpc.EncodeRequest("svc.m", []any{v, what})
	wantReq, _ := xmlrpc.EncodeRequest("svc.m", []any{w, what})
	if err != nil || !bytes.Equal(req, wantReq) {
		t.Fatalf("%s: EncodeRequest(v) = %s, %v\nwant %s", what, req, err, wantReq)
	}
	checkDecodeInto(t, what, doc, reflect.TypeOf(v))
}

// checkDecodeInto decodes doc into a new value of typ both ways: equal
// values, or both fail.
func checkDecodeInto(t *testing.T, what string, doc []byte, typ reflect.Type) {
	t.Helper()
	one, two := reflect.New(typ), reflect.New(typ)
	errOne := xmlrpc.DecodeResponseInto(bytes.NewReader(doc), one.Interface())
	tree, errTwo := xmlrpc.DecodeResponse(bytes.NewReader(doc))
	if errTwo == nil {
		errTwo = xmlrpc.Unmarshal(tree, two.Interface())
	}
	if (errOne == nil) != (errTwo == nil) {
		t.Fatalf("%s into %s: one pass err = %v, two-step err = %v\n%s", what, typ, errOne, errTwo, doc)
	}
	if errOne != nil {
		if !one.Elem().IsZero() {
			t.Fatalf("%s into %s: a failed decode left %+v", what, typ, one.Elem())
		}
		return
	}
	if !reflect.DeepEqual(one.Elem().Interface(), two.Elem().Interface()) {
		t.Fatalf("%s into %s:\none pass %+v\ntwo-step %+v\n%s", what, typ, one.Elem(), two.Elem(), doc)
	}
}

func TestOnePassMatchesTwoStep(t *testing.T) {
	for name, v := range wireValues() {
		checkOnePass(t, name, v)
	}
	rng := rand.New(rand.NewSource(22))
	for _, zero := range wireTypes {
		for i := 0; i < 200; i++ {
			v := reflect.New(reflect.TypeOf(zero)).Elem()
			fill(v, rng)
			checkOnePass(t, v.Type().String(), v.Interface())
		}
	}
	// Every golden document into every destination: most pairs mismatch,
	// and must fail both ways.
	for name := range wireValues() {
		doc, err := xmlrpc.EncodeResponse(wireValues()[name])
		if err != nil {
			t.Fatal(err)
		}
		for _, zero := range wireTypes {
			checkDecodeInto(t, name, doc, reflect.TypeOf(zero))
		}
	}
	// Documents no encoder of ours writes, into the types they resemble.
	member := func(name, value string) string {
		return "<member><name>" + name + "</name><value>" + value + "</value></member>"
	}
	response := func(value string) []byte {
		return []byte("<methodResponse><params><param><value>" + value + "</value></param></params></methodResponse>")
	}
	job := "<struct>" + member("id", "<int>7</int>") + member("pool", "siteA") + "</struct>"
	seven := gae.JobInfo{ID: 7}
	for what, c := range map[string]struct {
		value string
		want  any // what both ways decode; with fail, only the type to decode into
		fail  bool
	}{
		"value before name":   {"<struct><member><value><int>7</int></value><name>id</name></member></struct>", seven, false},
		"member named twice":  {"<struct><member><name>id</name><value><int>7</int></value><name>priority</name></member></struct>", gae.JobInfo{Priority: 7}, false},
		"member valued twice": {"<struct><member><name>id</name><value><int>8</int></value><value><int>7</int></value></member></struct>", seven, false},
		"repeated member":     {"<struct>" + member("id", "<int>8</int>") + member("id", "<int>7</int>") + "</struct>", seven, false},
		"repeated struct replaces, not merges": {"<struct>" + member("job", job) + member("job", "<struct>"+member("owner", "bob")+"</struct>") + "</struct>",
			gae.SteeringStatus{Job: &gae.JobInfo{Owner: "bob"}}, false},
		"repeated after a bad one":   {"<struct>" + member("id", "seven") + member("id", "<int>7</int>") + "</struct>", seven, false},
		"bad member":                 {"<struct>" + member("id", "seven") + "</struct>", seven, true},
		"nil into a pointer":         {"<struct>" + member("job", "<nil/>") + member("plan", "p") + "</struct>", gae.SteeringStatus{Plan: "p"}, false},
		"nil into a struct":          {"<nil/>", gae.JobInfo{}, false},
		"nil into a slice":           {"<nil/>", []gae.JobInfo(nil), false},
		"nil element":                {"<array><data><value><nil/></value><value>" + job + "</value></data></array>", []gae.JobInfo{{}, {ID: 7, Pool: "siteA"}}, false},
		"integral double into int":   {"<struct>" + member("id", "<double>7.0</double>") + "</struct>", seven, false},
		"fractional double into int": {"<struct>" + member("id", "<double>7.5</double>") + "</struct>", seven, true},
		"int into double":            {"<struct>" + member("progress", "<int>1</int>") + "</struct>", gae.JobInfo{Progress: 1}, false},
		"i8 beyond int32":            {"<struct>" + member("id", "<i8>1099511627776</i8>") + "</struct>", gae.JobInfo{ID: 1 << 40}, false},
		"unknown member":             {"<struct>" + member("colour", "<array><data><value>red</value></data></array>") + member("id", "<int>7</int>") + "</struct>", seven, false},
		"bad unknown member":         {"<struct>" + member("colour", "<int>red</int>") + member("id", "<int>7</int>") + "</struct>", seven, true},
		"members out of order":       {"<struct>" + member("pool", "siteA") + member("id", "<int>7</int>") + member("cmd", "x") + "</struct>", gae.JobInfo{ID: 7, Pool: "siteA", Cmd: "x"}, false},
		"array without data":         {"<array><value>a</value><data><data><value>b</value></data></data></array>", []string{"a", "b"}, false},
		"empty array":                {"<array/>", []string{}, false},
		"struct into a slice":        {job, []gae.JobInfo{}, true},
		"array into a struct":        {"<array><data/></array>", seven, true},
		"two values in the param":    {"a</value><value>b", "b", false},
		"bare text into a string":    {" two words ", " two words ", false},
		"time into a string":         {"<dateTime.iso8601>20050415T10:30:45</dateTime.iso8601>", "", true},
		"string into a time":         {"<struct>" + member("t", "now") + "</struct>", gae.MetricPoint{}, true},
		"truncated":                  {"<struct>" + member("id", "<int>7</int>") + "<member><name>pool", seven, true},
	} {
		doc := response(c.value)
		checkDecodeInto(t, what, doc, reflect.TypeOf(c.want))
		got := reflect.New(reflect.TypeOf(c.want))
		err := xmlrpc.DecodeResponseInto(bytes.NewReader(doc), got.Interface())
		if (err != nil) != c.fail || err == nil && !reflect.DeepEqual(got.Elem().Interface(), c.want) {
			t.Errorf("%s: decoded %+v, %v; want %+v (fail: %v)", what, got.Elem(), err, c.want, c.fail)
		}
	}
}

// stubTransport answers every request with the next of its bodies (the
// last one again when they run out).
type stubTransport struct {
	bodies [][]byte
	calls  int
}

func (s *stubTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	body := s.bodies[min(s.calls, len(s.bodies)-1)]
	s.calls++
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)), Request: r}, nil
}

// TestRetryDecodesIntoFreshResult: a reply that fails half-way through
// must leave nothing in the result of the attempt that follows it.
func TestRetryDecodesIntoFreshResult(t *testing.T) {
	_, job := wireJob()
	long, err := xmlrpc.EncodeResponse([]gae.JobInfo{job, job, job})
	if err != nil {
		t.Fatal(err)
	}
	short, err := xmlrpc.EncodeResponse([]gae.JobInfo{{ID: 1, Pool: "siteB"}})
	if err != nil {
		t.Fatal(err)
	}
	stub := &stubTransport{bodies: [][]byte{long[:len(long)*2/3], short}}
	c, err := gae.Dial(context.Background(), "http://stub.invalid/", gae.WithTransport(stub),
		gae.WithRetryPolicy(gae.RetryPolicy{BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.JobList(context.Background(), "siteB")
	if err != nil || stub.calls != 2 {
		t.Fatalf("JobList: %v after %d attempts, want success on the second", err, stub.calls)
	}
	if want := []gae.JobInfo{{ID: 1, Pool: "siteB"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("JobList = %+v\nwant %+v: nothing of the truncated first reply", got, want)
	}

	// Without a retry the truncated reply is an error and a zero result,
	// and so is a fault.
	for what, body := range map[string][]byte{
		"truncated": long[:len(long)*2/3],
		"fault":     xmlrpc.EncodeFault(xmlrpc.NewFault(xmlrpc.FaultApplication, "no")),
	} {
		c, err := gae.Dial(context.Background(), "http://stub.invalid/", gae.WithTransport(&stubTransport{bodies: [][]byte{body}}))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := c.JobList(context.Background(), "siteA"); err == nil || got != nil {
			t.Errorf("%s reply: JobList = %+v, %v; want an error and no result", what, got, err)
		}
		if info, err := c.Job(context.Background(), "siteA", 1); err == nil || info != (gae.JobInfo{}) {
			t.Errorf("%s reply: Job = %+v, %v; want an error and a zero result", what, info, err)
		}
	}
}
