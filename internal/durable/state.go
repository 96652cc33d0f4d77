package durable

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"time"
)

// SnapshotVersion is the current snapshot format version. Loaders reject
// versions they do not understand instead of guessing. Version 2 moved the
// quota ledger out of the document into the history segment.
const SnapshotVersion = 2

// Snapshot is the durable image of a full deployment at one instant.
type Snapshot struct {
	Version int `json:"version"`
	// LastSeq is the journal sequence number the snapshot covers: every
	// op with Seq <= LastSeq is already folded into State.
	LastSeq uint64 `json:"last_seq"`
	// SimTime is the simulated instant the state was captured at; restore
	// advances a fresh engine to it before injecting state.
	SimTime time.Time `json:"sim_time"`
	State   State     `json:"state"`
	// HistoryRecords is how many records of the history segment the
	// snapshot stands on: State.Quota.Ledger is exactly those, and is not
	// in the document. Records behind them belong to a checkpoint that
	// never landed and are cut at Open.
	HistoryRecords int `json:"history_records"`
}

// State is the serializable form of every mutable GAE domain: Condor job
// queues and machine claims/leases, fair-share decayed-usage accounts,
// the quota ledger, the replica catalog, scheduler plans, the steering
// preference, and the per-user analysis-session state store.
//
// Encoding is canonical — slices are sorted by their natural key by the
// exporters and Go's JSON encoder orders map keys — so two captures of
// identical logical state are byte-identical, which is what the crash-
// recovery suite asserts.
type State struct {
	Pools       []PoolState                  `json:"pools,omitempty"`
	FairShare   *FairShareState              `json:"fair_share,omitempty"`
	Quota       QuotaState                   `json:"quota"`
	Replicas    []ReplicaLocation            `json:"replicas,omitempty"`
	Plans       []PlanState                  `json:"plans,omitempty"`
	Steering    SteeringState                `json:"steering"`
	Estimator   *EstimatorState              `json:"estimator,omitempty"`
	UserState   map[string]map[string]string `json:"user_state,omitempty"`
	Idempotency []IdemUser                   `json:"idempotency,omitempty"`
}

// Emit receives one section of a State: field is the section's JSON name
// and value a value of that State field's type. A producer calls it once
// per field, in State's declaration order, and holds no section longer
// than the call — which is what lets a checkpoint cost one section of
// memory at a time instead of a whole State. A consumer keeps its first
// failure, ignores what is emitted after it, and reports it when the
// producer returns.
type Emit func(field string, value any)

// consume runs produce and hands visit each section with its index in
// State, JSON name and omitempty tag. It is the half the consumers share,
// and rejects anything but State's own fields in order, so a field added
// to State and forgotten by a producer fails the checkpoint instead of
// recovering as zero.
func consume(produce func(Emit) error, visit func(i int, name string, omitEmpty bool, v reflect.Value) error) error {
	fields := reflect.TypeOf(State{})
	var next int
	var err error
	perr := produce(func(field string, value any) {
		if err != nil {
			return
		}
		if next == fields.NumField() {
			err = fmt.Errorf("durable: state section %q emitted after the last field", field)
			return
		}
		f := fields.Field(next)
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		v := reflect.ValueOf(value)
		switch {
		case field != name:
			err = fmt.Errorf("durable: state section %q emitted where %q is due", field, name)
		case !v.IsValid() || v.Type() != f.Type:
			err = fmt.Errorf("durable: state section %q emitted as %T, want %v", field, value, f.Type)
		default:
			err = visit(next, name, opts == "omitempty", v)
			next++
		}
	})
	switch {
	case perr != nil:
		return perr
	case err == nil && next < fields.NumField():
		return fmt.Errorf("durable: state producer stopped before field %s", fields.Field(next).Name)
	}
	return err
}

// CollectState assembles a State from a producer's sections — the
// in-memory consumer, for callers that compare or encode a whole State.
func CollectState(produce func(Emit) error) (State, error) {
	var st State
	into := reflect.ValueOf(&st).Elem()
	err := consume(produce, func(i int, _ string, _ bool, v reflect.Value) error {
		into.Field(i).Set(v)
		return nil
	})
	return st, err
}

// IdemUser is one user's idempotency window: the request IDs of their
// most recent acknowledged mutations with the acknowledged results, in
// acknowledgment order (oldest first, the eviction order). Snapshotting
// the window is what lets duplicate suppression survive a restart that
// falls between a call's first delivery and its retry.
type IdemUser struct {
	User    string      `json:"user"`
	Entries []IdemEntry `json:"entries"`
}

// IdemEntry records one acknowledged mutation: a retry bearing the same
// request ID gets Result back instead of a second application. Method is
// the fully-qualified RPC name and guards against a key reused across
// different calls. At is the simulated acknowledgment instant — the
// same timestamp the op's journal record carries — and is what TTL
// (age-based) window eviction compares against; a zero At (an entry
// from a pre-TTL snapshot) is never age-evicted.
type IdemEntry struct {
	ID     string          `json:"id"`
	Method string          `json:"method"`
	At     time.Time       `json:"at,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// PoolState is one execution service's queue: every job ever submitted
// (terminal jobs keep their accounting records) plus the ID allocator.
type PoolState struct {
	Name   string     `json:"name"`
	NextID int        `json:"next_id"`
	Jobs   []JobState `json:"jobs,omitempty"`
}

// JobState is the codec's view of one Condor job. Ad is the canonical
// ClassAd text (classad.ParseAd restores it); CPUSeconds is the total
// completed work at capture time, which restore carries as the job's
// checkpoint base.
type JobState struct {
	ID       int    `json:"id"`
	Ad       string `json:"ad"`
	Status   int    `json:"status"`
	Priority int    `json:"priority"`
	Owner    string `json:"owner,omitempty"`

	SubmitTime     time.Time `json:"submit_time"`
	StartTime      time.Time `json:"start_time"`
	CompletionTime time.Time `json:"completion_time"`

	CPUSeconds float64 `json:"cpu_seconds"`
	// WallClock is the execution time accumulated at capture time, which
	// is CPUSeconds only on a machine of the reference speed. Absent in
	// snapshots written before the field existed; restore then falls back
	// to CPUSeconds at Mips 1.
	WallClock time.Duration `json:"wall_clock,omitempty"`

	// Node is the machine the job occupies (running/suspended jobs); the
	// claim it represents is the job's lease on that machine.
	Node string `json:"node,omitempty"`
	// LeaseExpires bounds the claim: recovery re-binds the job to its
	// machine while the lease holds and requeues it once expired. The
	// exporting pool is the lease authority — a live export stamps its
	// running jobs' leases fresh.
	LeaseExpires time.Time `json:"lease_expires,omitzero"`
}

// FairShareState captures the decayed-usage accounting hierarchy.
type FairShareState struct {
	Groups  []FairShareAccount `json:"groups,omitempty"`
	Tenants []FairShareTenant  `json:"tenants,omitempty"`
}

// FairShareAccount is one node of the accounting hierarchy at its last
// settlement instant (usage decays lazily from Last).
type FairShareAccount struct {
	Name   string    `json:"name"`
	Weight float64   `json:"weight"`
	Usage  float64   `json:"usage"`
	Last   time.Time `json:"last"`
}

// FairShareTenant adds group membership, per-site usage, and the
// starvation guard's last-allocation timestamp.
type FairShareTenant struct {
	FairShareAccount
	Group     string             `json:"group"`
	Sites     []FairShareAccount `json:"sites,omitempty"`
	LastStart time.Time          `json:"last_start,omitzero"`
}

// QuotaState captures user balances and the charge ledger. Site rates are
// deployment configuration and are rebuilt from the Config, not restored.
// A ledger entry never changes once billed, so on disk the ledger lives in
// the history segment, appended to and never rewritten: a producer asked
// for the entries from a cursor on emits only those, a checkpoint moves
// them to the segment, and Open puts the covered ones back here.
type QuotaState struct {
	Balances []QuotaBalance `json:"balances,omitempty"`
	Ledger   []QuotaCharge  `json:"ledger,omitempty"`
}

// QuotaBalance is one user's remaining credits.
type QuotaBalance struct {
	User    string  `json:"user"`
	Credits float64 `json:"credits"`
}

// QuotaCharge is one accounting ledger entry; the quota service's Charge
// is this type.
type QuotaCharge struct {
	Time       time.Time `json:"time"`
	User       string    `json:"user"`
	Site       string    `json:"site"`
	CPUSeconds float64   `json:"cpu_seconds"`
	MB         float64   `json:"mb"`
	Credits    float64   `json:"credits"`
	// TransferCredits is the slice of Credits attributable to data
	// movement, priced at the rate in force when the charge was billed —
	// ledger subscribers (the fair-share bridge) read it instead of
	// re-deriving it from rates that may have changed since.
	TransferCredits float64 `json:"transfer_credits"`
	Note            string  `json:"note,omitempty"`
}

// ReplicaLocation is one replica catalog entry.
type ReplicaLocation struct {
	Dataset string  `json:"dataset"`
	Site    string  `json:"site"`
	SizeMB  float64 `json:"size_mb"`
}

// PlanState is one submitted scheduler plan with its per-task concrete
// assignments. Spec is the plan's wire form (gae.PlanSpec JSON), which
// restore validates back into an abstract plan.
type PlanState struct {
	Name  string          `json:"name"`
	Owner string          `json:"owner"`
	Spec  json.RawMessage `json:"spec"`
	Tasks []PlanTaskState `json:"tasks,omitempty"`
}

// PlanTaskState is one task's concrete binding. State uses the
// scheduler's TaskState integer values; tasks captured mid-staging are
// restored as pending (the in-flight transfer died with the process).
type PlanTaskState struct {
	TaskID      string    `json:"task_id"`
	Site        string    `json:"site,omitempty"`
	CondorID    int       `json:"condor_id,omitempty"`
	State       int       `json:"state"`
	SubmittedAt time.Time `json:"submitted_at,omitzero"`
	Attempts    int       `json:"attempts,omitempty"`
}

// SteeringState captures the steering service's durable knobs.
type SteeringState struct {
	Preference string `json:"preference,omitempty"`
}

// EstimatorState captures the decentralized estimator layer: each site's
// completed-task history (the paper's SDSC-style accounting records). It
// feeds placement and the EstimatedRuntime stamped into job ads, so a
// recovery that dropped it would diverge on the first post-restart
// submission. The submission-time estimates themselves live in the job
// ads, which the pools section carries.
type EstimatorState struct {
	Sites []SiteHistory `json:"sites,omitempty"`
}

// SiteHistory is one site's completed-task history, in insertion order.
type SiteHistory struct {
	Site    string          `json:"site"`
	Records []HistoryRecord `json:"records,omitempty"`
}

// HistoryRecord is one completed task of a site's history; the estimator's
// TaskRecord is this type.
type HistoryRecord struct {
	Account   string  `json:"account,omitempty"`
	Login     string  `json:"login,omitempty"`
	Partition string  `json:"partition,omitempty"`
	Nodes     int     `json:"nodes,omitempty"`
	JobType   string  `json:"job_type,omitempty"` // "batch" or "interactive"
	Succeeded bool    `json:"succeeded"`
	ReqHours  float64 `json:"req_cpu_hours,omitempty"` // requested CPU hours
	Queue     string  `json:"queue,omitempty"`
	CPURate   float64 `json:"cpu_rate,omitempty"`  // charge rate for CPU hours
	IdleRate  float64 `json:"idle_rate,omitempty"` // charge rate for idle hours

	Submitted time.Time `json:"submitted,omitzero"`
	Started   time.Time `json:"started,omitzero"`
	Completed time.Time `json:"completed,omitzero"`

	RuntimeSeconds float64 `json:"runtime_seconds"` // actual execution time
}

// EncodeState renders just the state section — the byte-identity domain
// the recovery suite compares.
func EncodeState(st *State) ([]byte, error) {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("durable: encoding state: %w", err)
	}
	return b, nil
}

// DecodeSnapshot parses and validates a snapshot document.
func DecodeSnapshot(raw []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%w: snapshot: %v", ErrCorrupt, err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("durable: snapshot version %d (want %d)", s.Version, SnapshotVersion)
	}
	return &s, nil
}
