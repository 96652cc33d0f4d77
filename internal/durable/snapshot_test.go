package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sectionNames lists State's JSON keys in field order.
func sectionNames() []string {
	t := reflect.TypeOf(State{})
	names := make([]string, t.NumField())
	for i := range names {
		names[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return names
}

// producerOf is the producer form of a State already in memory: its
// fields, in order.
func producerOf(st *State) func(Emit) error {
	return func(emit Emit) error {
		v := reflect.ValueOf(st).Elem()
		for i, name := range sectionNames() {
			emit(name, v.Field(i).Interface())
		}
		return nil
	}
}

// checkpointOf is producerOf in the form Store.Checkpoint takes: the
// ledger from the entry asked for on.
func checkpointOf(st *State) func(int, Emit) error {
	return func(ledgerFrom int, emit Emit) error {
		cut := *st
		cut.Quota.Ledger = st.Quota.Ledger[ledgerFrom:]
		return producerOf(&cut)(emit)
	}
}

// countLedger stands in for the history segment where a test streams a
// snapshot into memory: it holds nothing and counts what it is handed.
func countLedger(ledger []QuotaCharge) (int, error) { return len(ledger), nil }

// fullState has every State field populated; the test below fails on a
// field added to State and not to this literal.
func fullState() State {
	at := storeEpoch.Add(90 * time.Second)
	return State{
		Pools: []PoolState{{Name: "siteA", NextID: 1, Jobs: []JobState{{
			ID: 1, Ad: `[Cmd = "main"; Owner = "alice"]`, Status: 2, Owner: "alice",
			SubmitTime: storeEpoch, StartTime: storeEpoch.Add(time.Second),
			CPUSeconds: 89, WallClock: 89 * time.Second, Node: "siteA-n0", LeaseExpires: at.Add(10 * time.Minute),
		}}}},
		FairShare: &FairShareState{
			Groups: []FairShareAccount{{Name: "cms", Weight: 1, Usage: 89, Last: at}},
			Tenants: []FairShareTenant{{
				FairShareAccount: FairShareAccount{Name: "alice", Weight: 1, Usage: 89, Last: at},
				Group:            "cms",
				Sites:            []FairShareAccount{{Name: "siteA", Weight: 1, Usage: 89, Last: at}},
				LastStart:        storeEpoch.Add(time.Second),
			}},
		},
		Quota: QuotaState{
			Balances: []QuotaBalance{{User: "alice", Credits: 987.5}},
			Ledger:   []QuotaCharge{{Time: at, User: "alice", Site: "siteA", CPUSeconds: 120, MB: 30, Credits: 12, TransferCredits: 0.5, Note: "a <note> & more"}},
		},
		Replicas: []ReplicaLocation{{Dataset: "hits.root", Site: "siteA", SizeMB: 40}},
		Plans: []PlanState{{
			Name: "p1", Owner: "alice", Spec: json.RawMessage(`{"name":"p1","tasks":[{"id":"main"}]}`),
			Tasks: []PlanTaskState{{TaskID: "main", Site: "siteA", CondorID: 1, State: 3, SubmittedAt: storeEpoch, Attempts: 1}},
		}},
		Steering: SteeringState{Preference: "cheap"},
		Estimator: &EstimatorState{
			Sites: []SiteHistory{{Site: "siteA", Records: []HistoryRecord{{Login: "alice", Queue: "short", Succeeded: true, Completed: at, RuntimeSeconds: 30}}}},
		},
		UserState:   map[string]map[string]string{"alice": {"cuts": "pt>20 && |eta|<2.4"}, "bob": {"k": "v"}},
		Idempotency: []IdemUser{{User: "alice", Entries: []IdemEntry{{ID: "rid-1", Method: "state.set", At: at, Result: json.RawMessage(`true`)}}}},
	}
}

func streamSnapshot(t *testing.T, lastSeq uint64, simTime time.Time, produce func(Emit) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, lastSeq, simTime, produce, countLedger); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamedSnapshotMatchesMarshal pins the streaming writer to the
// document it replaced: for a State with every field populated and for
// the zero State (whose quota and steering sections are never omitted),
// the streamed bytes are, whitespace aside, json.Marshal of the
// equivalent Snapshot — the one whose ledger has gone to the history
// segment and been counted.
func TestStreamedSnapshotMatchesMarshal(t *testing.T) {
	full := fullState()
	fv := reflect.ValueOf(full)
	for i, name := range sectionNames() {
		if fv.Field(i).IsZero() {
			t.Fatalf("fullState leaves section %q empty: populate it", name)
		}
	}
	// A zone other than UTC: both writers normalise the stamp.
	simTime := storeEpoch.Add(90*time.Second + 5*time.Millisecond).In(time.FixedZone("CET", 3600))
	for _, tc := range []struct {
		name     string
		st       State
		sections int // that reach the document
	}{
		{"full", full, len(sectionNames())},
		{"zero", State{}, 2},
		{"empty non-nil", State{Pools: []PoolState{}, UserState: map[string]map[string]string{}}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			streamed := streamSnapshot(t, 42, simTime, producerOf(&tc.st))
			onDisk := tc.st
			onDisk.Quota.Ledger = nil
			marshaled, err := json.Marshal(&Snapshot{Version: SnapshotVersion, LastSeq: 42, SimTime: simTime.UTC(), State: onDisk, HistoryRecords: len(tc.st.Quota.Ledger)})
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(streamed, []byte(`"ledger"`)) {
				t.Fatalf("the ledger reached the snapshot document:\n%s", streamed)
			}
			var got, want bytes.Buffer
			if err := json.Compact(&got, streamed); err != nil {
				t.Fatalf("streamed snapshot is not JSON: %v\n%s", err, streamed)
			}
			if err := json.Compact(&want, marshaled); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("streamed snapshot differs from json.Marshal:\n streamed: %s\n marshal:  %s", got.Bytes(), want.Bytes())
			}
			snap, err := DecodeSnapshot(streamed)
			if err != nil {
				t.Fatal(err)
			}
			if snap.LastSeq != 42 || !snap.SimTime.Equal(simTime) {
				t.Fatalf("envelope decoded as seq %d at %v", snap.LastSeq, snap.SimTime)
			}
			// One section per line, then the closing braces on their own.
			if lines := bytes.Count(streamed, []byte("\n")); lines != tc.sections+1 {
				t.Fatalf("streamed as %d lines, want %d sections and the closing line:\n%s", lines, tc.sections, streamed)
			}
		})
	}
}

// TestEarlierEstimatorSectionStillDecodes: snapshots written while the
// scheduler kept a second copy of every job's runtime estimate carry an
// "estimates" array in their estimator section. Such a document still
// decodes, to the state the same document without the array decodes to,
// site histories intact — the job ads in its pools section hold every
// estimate, so nothing is lost and SnapshotVersion need not move.
func TestEarlierEstimatorSectionStillDecodes(t *testing.T) {
	full := fullState()
	doc := streamSnapshot(t, 7, storeEpoch, producerOf(&full))
	sites, err := json.Marshal(full.Estimator.Sites)
	if err != nil {
		t.Fatal(err)
	}
	section := `"estimator":{"sites":` + string(sites)
	if !bytes.Contains(doc, []byte(section+"}")) {
		t.Fatalf("no estimator section %s} in the snapshot:\n%s", section, doc)
	}
	earlier := bytes.Replace(doc, []byte(section+"}"),
		[]byte(section+`,"estimates":[{"pool":"siteA","id":1,"seconds":600},{"pool":"siteB","id":4,"seconds":30}]}`), 1)
	got, err := DecodeSnapshot(earlier)
	if err != nil {
		t.Fatalf("earlier snapshot does not decode: %v", err)
	}
	want, err := DecodeSnapshot(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got.State.Estimator == nil || !reflect.DeepEqual(got.State.Estimator.Sites, full.Estimator.Sites) {
		t.Fatalf("estimator section decoded as %+v, want sites %+v", got.State.Estimator, full.Estimator.Sites)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("earlier snapshot decoded as\n %+v\nwant\n %+v", got, want)
	}
}

// TestSectionOrderEnforced: both consumers of a producer refuse a section
// out of State order, one of the wrong type, and a producer that stops
// early — the ways a forgotten or misfiled section could otherwise reach
// disk as a snapshot that recovers to zero.
func TestSectionOrderEnforced(t *testing.T) {
	var none []PoolState
	bad := map[string]func(Emit){
		"out of order": func(emit Emit) { emit("quota", QuotaState{}) },
		"unknown":      func(emit Emit) { emit("nope", 1) },
		"wrong type":   func(emit Emit) { emit("pools", []JobState{}) },
		"untyped nil":  func(emit Emit) { emit("pools", nil) },
		"stops early":  func(emit Emit) { emit("pools", none) },
		"twice":        func(emit Emit) { emit("pools", none); emit("pools", none) },
		"one too many": func(emit Emit) {
			producerOf(&State{})(emit) //nolint:errcheck // always nil
			emit("idempotency", []IdemUser(nil))
		},
	}
	for name, emits := range bad {
		produce := func(emit Emit) error { emits(emit); return nil }
		if err := writeSnapshot(&bytes.Buffer{}, 1, storeEpoch, produce, countLedger); err == nil {
			t.Errorf("writeSnapshot accepted a producer that is %s", name)
		}
		if _, err := CollectState(produce); err == nil {
			t.Errorf("CollectState accepted a producer that is %s", name)
		}
	}
	boom := errors.New("boom")
	if _, err := CollectState(func(Emit) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("CollectState lost the producer's own error: %v", err)
	}
	full := fullState()
	got, err := CollectState(producerOf(&full))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("CollectState lost state:\n got  %+v\n want %+v", got, full)
	}
}
