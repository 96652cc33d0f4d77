package gae

import (
	"context"
	"errors"

	"repro/internal/xmlrpc"
)

// This file is the generic handler adapter: it binds a service interface
// implementation to the XML-RPC wire. Positional parameters are decoded
// into typed arguments with the typed codec, results go to the mux as the
// typed values they are, and plain errors become application faults
// (ErrNoSession becomes an authentication fault). internal/core registers
// every Clarens service through these bindings; the per-method
// map[string]any plumbing the services used to hand-write is gone.
//
// Arity is checked exactly. The hand-written handlers were inconsistent
// (some methods enforced Want(n), others silently ignored surplus
// arguments); the adapter deliberately makes every method strict, so a
// call with extra parameters now returns FaultInvalidParams everywhere.

// Handler0 adapts a niladic typed method.
func Handler0[R any](fn func(context.Context) (R, error)) xmlrpc.Handler {
	return func(ctx context.Context, args []any) (any, error) {
		if err := xmlrpc.Params(args).Want(0); err != nil {
			return nil, err
		}
		return wireResult(fn(ctx))
	}
}

// Handler1 adapts a one-argument typed method.
func Handler1[A, R any](fn func(context.Context, A) (R, error)) xmlrpc.Handler {
	return func(ctx context.Context, args []any) (any, error) {
		if err := xmlrpc.Params(args).Want(1); err != nil {
			return nil, err
		}
		a, err := arg[A](args, 0)
		if err != nil {
			return nil, err
		}
		return wireResult(fn(ctx, a))
	}
}

// Handler2 adapts a two-argument typed method.
func Handler2[A, B, R any](fn func(context.Context, A, B) (R, error)) xmlrpc.Handler {
	return func(ctx context.Context, args []any) (any, error) {
		if err := xmlrpc.Params(args).Want(2); err != nil {
			return nil, err
		}
		a, err := arg[A](args, 0)
		if err != nil {
			return nil, err
		}
		b, err := arg[B](args, 1)
		if err != nil {
			return nil, err
		}
		return wireResult(fn(ctx, a, b))
	}
}

// Handler3 adapts a three-argument typed method.
func Handler3[A, B, C, R any](fn func(context.Context, A, B, C) (R, error)) xmlrpc.Handler {
	return func(ctx context.Context, args []any) (any, error) {
		if err := xmlrpc.Params(args).Want(3); err != nil {
			return nil, err
		}
		a, err := arg[A](args, 0)
		if err != nil {
			return nil, err
		}
		b, err := arg[B](args, 1)
		if err != nil {
			return nil, err
		}
		c, err := arg[C](args, 2)
		if err != nil {
			return nil, err
		}
		return wireResult(fn(ctx, a, b, c))
	}
}

// Action2 adapts a two-argument command; XML-RPC has no void, so success
// is the conventional boolean true.
func Action2[A, B any](fn func(context.Context, A, B) error) xmlrpc.Handler {
	return Handler2(func(ctx context.Context, a A, b B) (bool, error) {
		if err := fn(ctx, a, b); err != nil {
			return false, err
		}
		return true, nil
	})
}

// Action3 adapts a three-argument command returning true on success.
func Action3[A, B, C any](fn func(context.Context, A, B, C) error) xmlrpc.Handler {
	return Handler3(func(ctx context.Context, a A, b B, c C) (bool, error) {
		if err := fn(ctx, a, b, c); err != nil {
			return false, err
		}
		return true, nil
	})
}

// arg decodes positional argument i into the method's parameter type.
func arg[T any](args []any, i int) (v T, err error) {
	err = xmlrpc.Params(args).Into(i, &v)
	return v, err
}

// wireResult passes a typed result on, converting service errors to faults.
func wireResult(v any, err error) (any, error) {
	if err != nil {
		return nil, toFault(err)
	}
	return v, nil
}

func toFault(err error) error {
	if _, ok := xmlrpc.AsFault(err); ok {
		return err
	}
	if errors.Is(err, ErrNoSession) {
		return xmlrpc.NewFault(xmlrpc.FaultAuth, "no session")
	}
	return xmlrpc.NewFault(xmlrpc.FaultApplication, "%v", err)
}

// SchedulerHandlers binds a Scheduler to the "scheduler" service methods.
func SchedulerHandlers(s Scheduler) map[string]xmlrpc.Handler {
	return map[string]xmlrpc.Handler{
		"submit": Handler1(s.Submit),
		"plan":   Handler1(s.Plan),
		"sites":  Handler0(s.Sites),
	}
}

// SteeringHandlers binds a Steering to the "steering" service methods.
func SteeringHandlers(s Steering) map[string]xmlrpc.Handler {
	return map[string]xmlrpc.Handler{
		"jobs":          Handler0(s.Jobs),
		"status":        Handler2(s.TaskStatus),
		"kill":          Action2(s.Kill),
		"pause":         Action2(s.Pause),
		"resume":        Action2(s.Resume),
		"setpriority":   Action3(s.SetPriority),
		"estimate":      Handler2(s.EstimateCompletion),
		"notifications": Handler0(s.Notifications),
		// move takes an optional third argument naming the target site;
		// omitted, the scheduler chooses.
		"move": func(ctx context.Context, args []any) (any, error) {
			if len(args) != 2 && len(args) != 3 {
				return nil, xmlrpc.NewFault(xmlrpc.FaultInvalidParams, "got %d arguments, want 2 or 3", len(args))
			}
			plan, err := arg[string](args, 0)
			if err != nil {
				return nil, err
			}
			task, err := arg[string](args, 1)
			if err != nil {
				return nil, err
			}
			site := ""
			if len(args) >= 3 {
				if site, err = arg[string](args, 2); err != nil {
					return nil, err
				}
			}
			return wireResult(s.Move(ctx, plan, task, site))
		},
		// preference reads with no arguments, sets with one.
		"preference": func(ctx context.Context, args []any) (any, error) {
			if len(args) > 1 {
				return nil, xmlrpc.NewFault(xmlrpc.FaultInvalidParams, "got %d arguments, want 0 or 1", len(args))
			}
			if len(args) == 0 {
				return wireResult(s.Preference(ctx))
			}
			name, err := arg[string](args, 0)
			if err != nil {
				return nil, err
			}
			return wireResult(s.SetPreference(ctx, name))
		},
	}
}

// JobMonHandlers binds a JobMon to the "jobmon" service methods.
func JobMonHandlers(s JobMon) map[string]xmlrpc.Handler {
	return map[string]xmlrpc.Handler{
		"info":          Handler2(s.Job),
		"status":        Handler2(s.JobStatus),
		"progress":      Handler2(s.JobProgress),
		"wallclock":     Handler2(s.JobWallclock),
		"elapsed":       Handler2(s.JobElapsed),
		"remaining":     Handler2(s.JobRemaining),
		"queueposition": Handler2(s.JobQueuePosition),
		"list":          Handler1(s.JobList),
		"pools":         Handler0(s.Pools),
	}
}

// EstimatorHandlers binds an Estimator to the "estimator" service methods.
func EstimatorHandlers(s Estimator) map[string]xmlrpc.Handler {
	return map[string]xmlrpc.Handler{
		"runtime":   Handler2(s.EstimateRuntime),
		"queuetime": Handler2(s.EstimateQueueTime),
		"transfer":  Handler3(s.EstimateTransfer),
	}
}

// QuotaHandlers binds a Quota to the "quota" service methods.
func QuotaHandlers(s Quota) map[string]xmlrpc.Handler {
	return map[string]xmlrpc.Handler{
		"balance":  Handler0(s.Balance),
		"cost":     Handler3(s.Cost),
		"cheapest": Handler3(s.Cheapest),
		"grant":    Action2(s.Grant),
		"charge":   Handler1(s.ChargeUsage),
	}
}

// ReplicaHandlers binds a Replica to the "replica" service methods.
func ReplicaHandlers(s Replica) map[string]xmlrpc.Handler {
	return map[string]xmlrpc.Handler{
		"datasets":  Handler0(s.Datasets),
		"locations": Handler1(s.Replicas),
		"register":  Action3(s.RegisterReplica),
		"best":      Handler2(s.BestReplica),
	}
}

// MonitorHandlers binds a Monitor to the "monitor" service methods.
func MonitorHandlers(s Monitor) map[string]xmlrpc.Handler {
	return map[string]xmlrpc.Handler{
		"latest":  Handler2(s.Latest),
		"series":  Handler3(s.Series),
		"metrics": Handler0(s.Metrics),
		"events":  Handler2(s.Events),
		"sites":   Handler0(s.Weather),
	}
}

// StateHandlers binds a State to the "state" service methods.
func StateHandlers(s State) map[string]xmlrpc.Handler {
	return map[string]xmlrpc.Handler{
		"set":    Action2(s.SetState),
		"get":    Handler1(s.GetState),
		"keys":   Handler0(s.StateKeys),
		"delete": Handler1(s.DeleteState),
	}
}
