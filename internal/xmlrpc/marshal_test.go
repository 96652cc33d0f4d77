package xmlrpc

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

type nested struct {
	Label string  `xmlrpc:"label"`
	Score float64 `xmlrpc:"score"`
}

type sample struct {
	Name      string    `xmlrpc:"name"`
	Count     int       `xmlrpc:"count"`
	Ratio     float64   `xmlrpc:"ratio"`
	OK        bool      `xmlrpc:"ok"`
	Tags      []string  `xmlrpc:"tags"`
	Kids      []nested  `xmlrpc:"kids"`
	Child     *nested   `xmlrpc:"child,omitempty"`
	Started   time.Time `xmlrpc:"started,omitempty"`
	Ignored   string    `xmlrpc:"-"`
	Untagged  string
	internals string //nolint:unused // pins unexported-field skipping
}

func TestMarshalStruct(t *testing.T) {
	in := sample{
		Name:  "plan",
		Count: 3,
		Ratio: 0.5,
		OK:    true,
		Tags:  []string{"a", "b"},
		Kids:  []nested{{Label: "k", Score: 1.5}},
	}
	w, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := w.(map[string]any)
	if !ok {
		t.Fatalf("Marshal = %T", w)
	}
	if m["name"] != "plan" || m["count"] != 3 || m["ratio"] != 0.5 || m["ok"] != true {
		t.Fatalf("scalars = %v", m)
	}
	if _, ok := m["child"]; ok {
		t.Error("omitempty nil pointer emitted")
	}
	if _, ok := m["started"]; ok {
		t.Error("omitempty zero time emitted")
	}
	if _, ok := m["Ignored"]; ok {
		t.Error("skipped field emitted")
	}
	if m["Untagged"] != "" {
		t.Errorf("untagged field = %v", m["Untagged"])
	}
	tags, ok := m["tags"].([]any)
	if !ok || len(tags) != 2 || tags[0] != "a" {
		t.Fatalf("tags = %v", m["tags"])
	}
	kids := m["kids"].([]any)
	if kid := kids[0].(map[string]any); kid["label"] != "k" || kid["score"] != 1.5 {
		t.Fatalf("kids = %v", kids)
	}
}

func TestUnmarshalStruct(t *testing.T) {
	wire := map[string]any{
		"name":  "plan",
		"count": 3.0, // double with integral value → int
		"ratio": 2,   // int → float
		"ok":    true,
		"tags":  []any{"x"},
		"kids":  []any{map[string]any{"label": "k", "score": 9}},
		"child": map[string]any{"label": "c", "score": 0.25},
		"extra": "ignored",
	}
	var out sample
	if err := Unmarshal(wire, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "plan" || out.Count != 3 || out.Ratio != 2 || !out.OK {
		t.Fatalf("out = %+v", out)
	}
	if len(out.Tags) != 1 || out.Tags[0] != "x" {
		t.Fatalf("tags = %v", out.Tags)
	}
	if len(out.Kids) != 1 || out.Kids[0].Score != 9 {
		t.Fatalf("kids = %v", out.Kids)
	}
	if out.Child == nil || out.Child.Label != "c" {
		t.Fatalf("child = %v", out.Child)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var s sample
	if err := Unmarshal(map[string]any{"count": "NaN"}, &s); err == nil {
		t.Error("string into int accepted")
	}
	if err := Unmarshal(map[string]any{"count": 1.5}, &s); err == nil {
		t.Error("fractional double into int accepted")
	}
	if err := Unmarshal("str", &s); err == nil {
		t.Error("string into struct accepted")
	}
	var n int
	if err := Unmarshal("x", n); err == nil {
		t.Error("non-pointer target accepted")
	}
	// Integral doubles beyond int64 must be rejected, not converted to an
	// implementation-defined value.
	var big int64
	for _, v := range []float64{1e300, -1e300, math.MaxFloat64} {
		if err := Unmarshal(v, &big); err == nil {
			t.Errorf("double %g into int64 accepted (got %d)", v, big)
		}
	}
	if err := Unmarshal(9.007199254740992e15, &big); err != nil || big != 1<<53 {
		t.Errorf("in-range integral double = %d, %v", big, err)
	}
}

func TestUnmarshalArray(t *testing.T) {
	var coords [2]float64
	if err := Unmarshal([]any{1.5, 2}, &coords); err != nil || coords != [2]float64{1.5, 2} {
		t.Fatalf("array = %v, %v", coords, err)
	}
	if err := Unmarshal([]any{1.0}, &coords); err == nil {
		t.Error("length mismatch accepted")
	}
	// Arrays survive the full wire round trip that Marshal permits.
	in := struct {
		C [2]int `xmlrpc:"c"`
	}{C: [2]int{7, -3}}
	out := in
	out.C = [2]int{}
	roundTrip(t, in, &out)
	if out != in {
		t.Fatalf("array round trip = %+v", out)
	}
}

func TestUnmarshalScalarsAndAny(t *testing.T) {
	var f float64
	if err := Unmarshal(7, &f); err != nil || f != 7 {
		t.Fatalf("int→float = %v, %v", f, err)
	}
	var v any
	if err := Unmarshal(map[string]any{"a": 1}, &v); err != nil {
		t.Fatal(err)
	}
	if m := v.(map[string]any); m["a"] != 1 {
		t.Fatalf("any = %v", v)
	}
	var ss []string
	if err := Unmarshal([]any{"a", "b"}, &ss); err != nil || !reflect.DeepEqual(ss, []string{"a", "b"}) {
		t.Fatalf("[]string = %v, %v", ss, err)
	}
	var m map[string]float64
	if err := Unmarshal(map[string]any{"x": 1, "y": 2.5}, &m); err != nil || m["x"] != 1 || m["y"] != 2.5 {
		t.Fatalf("map = %v, %v", m, err)
	}
}

// roundTrip pushes a typed value through Marshal → wire encoding → wire
// decoding → Unmarshal, the exact path of a typed RPC response.
func roundTrip(t interface{ Fatalf(string, ...any) }, in, out any) {
	w, err := Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	enc, err := EncodeResponse(w)
	if err != nil {
		t.Fatalf("EncodeResponse: %v", err)
	}
	dec, err := DecodeResponse(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if err := Unmarshal(dec, out); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
}

func TestStructCodecRoundTrip(t *testing.T) {
	in := sample{
		Name:     "p&q<r>",
		Count:    -42,
		Ratio:    math.Pi,
		OK:       true,
		Tags:     []string{"α", "β"},
		Kids:     []nested{{Label: "k1", Score: 0.1}, {Label: "k2", Score: -3}},
		Child:    &nested{Label: "c", Score: 7},
		Started:  time.Date(2005, 4, 1, 12, 30, 45, 0, time.UTC),
		Untagged: "u",
	}
	var out sample
	roundTrip(t, in, &out)
	if out.Name != in.Name || out.Count != in.Count || out.Ratio != in.Ratio ||
		!reflect.DeepEqual(out.Tags, in.Tags) || !reflect.DeepEqual(out.Kids, in.Kids) ||
		out.Child == nil || *out.Child != *in.Child || !out.Started.Equal(in.Started) ||
		out.Untagged != in.Untagged {
		t.Fatalf("round trip:\n in=%+v\nout=%+v", in, out)
	}
}

// FuzzStructCodecRoundTrip fuzzes the typed struct encoder/decoder
// end-to-end: build a struct from fuzz inputs; if a string of it holds a
// rune XML cannot carry, encoding must fail; otherwise marshal, encode to
// XML, decode, unmarshal, and require value equality, and the one-pass
// EncodeResponse and DecodeResponseInto must give the same value.
func FuzzStructCodecRoundTrip(f *testing.F) {
	f.Add("plan", int32(3), 0.5, true, "tag", int64(1104537600))
	f.Add("", int32(-1), -12.75, false, "", int64(0))
	f.Add("a&b<c>'d\"", int32(math.MaxInt32), math.SmallestNonzeroFloat64, true, "x\ny", int64(4102444800))
	f.Add("a\uffffb", int32(0), 0.0, false, "\x01", int64(0))
	f.Fuzz(func(t *testing.T, name string, count int32, ratio float64, ok bool, tag string, sec int64) {
		if math.IsNaN(ratio) || math.IsInf(ratio, 0) {
			t.Skip("non-finite doubles are rejected by the encoder")
		}
		if !utf8.ValidString(name) || !utf8.ValidString(tag) {
			t.Skip("invalid UTF-8 is written as U+FFFD")
		}
		in := sample{Name: name, Count: int(count), Ratio: ratio, OK: ok, Tags: []string{tag}}
		if sec > 0 {
			ts := time.Unix(sec%253402300799, 0).UTC() // keep the year ≤ 9999
			if ts.Year() >= 1000 {                     // iso8601 needs 4-digit years
				in.Started = ts
			}
		}
		doc, err := EncodeResponse(in)
		if strings.ContainsFunc(name+tag, outsideXML) {
			if !errors.Is(err, ErrUnsupportedType) {
				t.Fatalf("%+v: encoded %q, %v; want ErrUnsupportedType", in, doc, err)
			}
			return
		}
		var out, direct sample
		roundTrip(t, in, &out)
		if out.Name != in.Name || out.Count != in.Count || out.Ratio != in.Ratio || out.OK != in.OK {
			t.Fatalf("scalars: in=%+v out=%+v", in, out)
		}
		if len(out.Tags) != 1 || out.Tags[0] != in.Tags[0] {
			t.Fatalf("tags: in=%q out=%q", in.Tags, out.Tags)
		}
		if !out.Started.Equal(in.Started) {
			t.Fatalf("time: in=%v out=%v", in.Started, out.Started)
		}
		if err != nil || DecodeResponseInto(bytes.NewReader(doc), &direct) != nil || !reflect.DeepEqual(direct, out) {
			t.Fatalf("one pass (%v): %+v, two steps %+v", err, direct, out)
		}
	})
}

type PlanBase struct {
	ID      int       `xmlrpc:"id"`
	Created time.Time `xmlrpc:"created,omitempty"`
	Secret  string    `xmlrpc:"-"`
}

type PlanDeep struct {
	Deep string `xmlrpc:"deep"`
}

type PlanMid struct {
	PlanDeep
	Note string `xmlrpc:"note,omitempty,future-option"`
}

type PlanTagged struct {
	T string `xmlrpc:"t"`
}

type planHidden struct {
	Hidden int `xmlrpc:"hidden"`
}

type planOuter struct {
	planHidden                   // unexported embed: skipped
	PlanBase                     // flattened
	PlanMid                      // flattened, and PlanDeep through it
	PlanTagged `xmlrpc:"tagged"` // tagged embed: a member of its own
	Link       *planOuter        `xmlrpc:"link,omitempty"`
}

// TestStructPlan covers what the per-type plan has to get right: embedded
// structs flatten (only exported, untagged ones), "-" skips, omitempty
// drops a zero time.Time and a nil pointer, and concurrent first use of a
// type is safe (run under -race).
func TestStructPlan(t *testing.T) {
	in := planOuter{
		planHidden: planHidden{Hidden: 1},
		PlanBase:   PlanBase{ID: 7, Secret: "s"},
		PlanMid:    PlanMid{PlanDeep: PlanDeep{Deep: "d"}},
	}
	want := map[string]any{"id": 7, "deep": "d", "tagged": map[string]any{"t": ""}}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := Marshal(in); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("Marshal = %#v, %v\nwant %#v", got, err, want)
			}
		}()
	}
	wg.Wait()

	in.Created = time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	in.Note = "n"
	in.Link = &planOuter{PlanBase: PlanBase{ID: 8}}
	want["created"], want["note"] = in.Created, "n"
	want["link"] = map[string]any{"id": 8, "deep": "", "tagged": map[string]any{"t": ""}}
	got, err := Marshal(in)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Marshal = %#v, %v\nwant %#v", got, err, want)
	}
	var out planOuter
	if err := Unmarshal(got, &out); err != nil {
		t.Fatal(err)
	}
	in.Secret, in.Hidden = "", 0 // neither travels
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("Unmarshal = %+v\nwant %+v", out, in)
	}
	plan := planOf(reflect.TypeOf(in)).members // in wire order: created deep id link note tagged
	if len(plan) != 6 || plan[0].name != "created" || !plan[0].omitempty || !reflect.DeepEqual(plan[1].index, []int{2, 0, 0}) || !plan[3].omitempty {
		t.Fatalf("plan = %+v", plan)
	}
}
