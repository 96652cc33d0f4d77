package gae_test

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/xmlrpc"
	"repro/pkg/gae"
)

// recorder implements all eight service interfaces; each method notes its
// name and answers with zero values.
type recorder struct{ called []string }

func (r *recorder) hit() {
	pc, _, _, _ := runtime.Caller(1)
	name := runtime.FuncForPC(pc).Name()
	r.called = append(r.called, name[strings.LastIndex(name, ".")+1:])
}

func (r *recorder) Submit(context.Context, gae.PlanSpec) (string, error) { r.hit(); return "", nil }
func (r *recorder) Plan(context.Context, string) (gae.PlanStatus, error) {
	r.hit()
	return gae.PlanStatus{}, nil
}
func (r *recorder) Sites(context.Context) ([]string, error) { r.hit(); return nil, nil }
func (r *recorder) Jobs(context.Context) ([]string, error)  { r.hit(); return nil, nil }
func (r *recorder) TaskStatus(context.Context, string, string) (gae.SteeringStatus, error) {
	r.hit()
	return gae.SteeringStatus{}, nil
}
func (r *recorder) Kill(context.Context, string, string) error   { r.hit(); return nil }
func (r *recorder) Pause(context.Context, string, string) error  { r.hit(); return nil }
func (r *recorder) Resume(context.Context, string, string) error { r.hit(); return nil }
func (r *recorder) Move(context.Context, string, string, string) (gae.MoveResult, error) {
	r.hit()
	return gae.MoveResult{}, nil
}
func (r *recorder) SetPriority(context.Context, string, string, int) error { r.hit(); return nil }
func (r *recorder) EstimateCompletion(context.Context, string, string) (float64, error) {
	r.hit()
	return 0, nil
}
func (r *recorder) Notifications(context.Context) ([]gae.Notification, error) {
	r.hit()
	return nil, nil
}
func (r *recorder) Preference(context.Context) (string, error)            { r.hit(); return "", nil }
func (r *recorder) SetPreference(context.Context, string) (string, error) { r.hit(); return "", nil }
func (r *recorder) Job(context.Context, string, int) (gae.JobInfo, error) {
	r.hit()
	return gae.JobInfo{}, nil
}
func (r *recorder) JobStatus(context.Context, string, int) (string, error)    { r.hit(); return "", nil }
func (r *recorder) JobProgress(context.Context, string, int) (float64, error) { r.hit(); return 0, nil }
func (r *recorder) JobWallclock(context.Context, string, int) (float64, error) {
	r.hit()
	return 0, nil
}
func (r *recorder) JobElapsed(context.Context, string, int) (float64, error) { r.hit(); return 0, nil }
func (r *recorder) JobRemaining(context.Context, string, int) (float64, error) {
	r.hit()
	return 0, nil
}
func (r *recorder) JobQueuePosition(context.Context, string, int) (int, error) {
	r.hit()
	return 0, nil
}
func (r *recorder) JobList(context.Context, string) ([]gae.JobInfo, error) { r.hit(); return nil, nil }
func (r *recorder) Pools(context.Context) ([]string, error)                { r.hit(); return nil, nil }
func (r *recorder) EstimateRuntime(context.Context, string, gae.TaskProfile) (gae.RuntimeEstimate, error) {
	r.hit()
	return gae.RuntimeEstimate{}, nil
}
func (r *recorder) EstimateQueueTime(context.Context, string, int) (gae.QueueEstimate, error) {
	r.hit()
	return gae.QueueEstimate{}, nil
}
func (r *recorder) EstimateTransfer(context.Context, string, string, float64) (gae.TransferEstimate, error) {
	r.hit()
	return gae.TransferEstimate{}, nil
}
func (r *recorder) Balance(context.Context) (float64, error) { r.hit(); return 0, nil }
func (r *recorder) Cost(context.Context, string, float64, float64) (float64, error) {
	r.hit()
	return 0, nil
}
func (r *recorder) Cheapest(context.Context, []string, float64, float64) (gae.CostQuote, error) {
	r.hit()
	return gae.CostQuote{}, nil
}
func (r *recorder) Grant(context.Context, string, float64) error { r.hit(); return nil }
func (r *recorder) ChargeUsage(context.Context, gae.ChargeRequest) (float64, error) {
	r.hit()
	return 0, nil
}
func (r *recorder) Datasets(context.Context) ([]string, error) { r.hit(); return nil, nil }
func (r *recorder) Replicas(context.Context, string) ([]gae.ReplicaLocation, error) {
	r.hit()
	return nil, nil
}
func (r *recorder) RegisterReplica(context.Context, string, string, float64) error {
	r.hit()
	return nil
}
func (r *recorder) BestReplica(context.Context, string, string) (gae.ReplicaChoice, error) {
	r.hit()
	return gae.ReplicaChoice{}, nil
}
func (r *recorder) Latest(context.Context, string, string) (float64, error) { r.hit(); return 0, nil }
func (r *recorder) Series(context.Context, string, string, float64) ([]gae.MetricPoint, error) {
	r.hit()
	return nil, nil
}
func (r *recorder) Metrics(context.Context) ([]string, error) { r.hit(); return nil, nil }
func (r *recorder) Events(context.Context, string, float64) ([]gae.GridEvent, error) {
	r.hit()
	return nil, nil
}
func (r *recorder) Weather(context.Context) ([]gae.SiteWeather, error) { r.hit(); return nil, nil }
func (r *recorder) SetState(context.Context, string, string) error     { r.hit(); return nil }
func (r *recorder) GetState(context.Context, string) (string, error)   { r.hit(); return "", nil }
func (r *recorder) StateKeys(context.Context) ([]string, error)        { r.hit(); return nil, nil }
func (r *recorder) DeleteState(context.Context, string) (bool, error)  { r.hit(); return false, nil }

// TestEveryInterfaceMethodHasOneRow: each of the 44 methods of the eight
// service interfaces is the typed call of exactly one row, and every row
// calls a method of the interface its wire name's service names. Each row
// is called on a client whose every service is a recorder.
func TestEveryInterfaceMethodHasOneRow(t *testing.T) {
	ifaces := map[string]reflect.Type{
		"scheduler": reflect.TypeFor[gae.Scheduler](),
		"steering":  reflect.TypeFor[gae.Steering](),
		"jobmon":    reflect.TypeFor[gae.JobMon](),
		"estimator": reflect.TypeFor[gae.Estimator](),
		"quota":     reflect.TypeFor[gae.Quota](),
		"replica":   reflect.TypeFor[gae.Replica](),
		"monitor":   reflect.TypeFor[gae.Monitor](),
		"state":     reflect.TypeFor[gae.State](),
	}
	rec := &recorder{}
	c := gae.NewClient(gae.Services{Scheduler: rec, Steering: rec, JobMon: rec, Estimator: rec,
		Quota: rec, Replica: rec, Monitor: rec, State: rec}, nil)
	leaveZero := func(xmlrpc.Params, int, any) error { return nil }
	rowsOf := make(map[string][]string) // "Steering.Kill" → the rows calling it
	for _, m := range gae.Methods() {
		service, _, _ := strings.Cut(m.Name, ".")
		iface, ok := ifaces[service]
		if !ok {
			t.Errorf("row %s names no service", m.Op)
			continue
		}
		// Try every arity: only the row's own is accepted.
		rec.called = nil
		for n := 0; n <= 3 && len(rec.called) == 0; n++ {
			m.Call(c, context.Background(), make(xmlrpc.Params, n), leaveZero)
		}
		if len(rec.called) != 1 {
			t.Errorf("row %s called %v, want one method", m.Op, rec.called)
			continue
		}
		if _, ok := iface.MethodByName(rec.called[0]); !ok {
			t.Errorf("row %s calls %s, which %s does not declare", m.Op, rec.called[0], iface.Name())
			continue
		}
		key := iface.Name() + "." + rec.called[0]
		rowsOf[key] = append(rowsOf[key], m.Op)
	}
	methods := 0
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethod(); i++ {
			methods++
			if key := iface.Name() + "." + iface.Method(i).Name; len(rowsOf[key]) != 1 {
				t.Errorf("%s is the call of rows %v, want exactly one", key, rowsOf[key])
			}
		}
	}
	if methods != 44 || len(gae.Methods()) != methods {
		t.Errorf("%d interface methods and %d rows, want 44 of each", methods, len(gae.Methods()))
	}
}
