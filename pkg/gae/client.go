package gae

import (
	"context"

	"repro/internal/clarens"
)

// Services bundles one implementation of every GAE service contract.
type Services struct {
	Scheduler Scheduler
	Steering  Steering
	JobMon    JobMon
	Estimator Estimator
	Quota     Quota
	Replica   Replica
	Monitor   Monitor
	State     State
}

// Client is the single façade over every GAE service. It satisfies the
// Scheduler, Steering, JobMon, Estimator, Quota, Replica, Monitor, and
// State interfaces, regardless of transport:
//
//   - local: core.GAE.Client(user) binds the interfaces straight to the
//     in-process services — zero serialization;
//   - remote: Dial binds them to a Clarens XML-RPC endpoint.
type Client struct {
	Scheduler
	Steering
	JobMon
	Estimator
	Quota
	Replica
	Monitor
	State

	session *clarens.Client // nil on the local transport
	// ownsSession marks a session this client opened itself (Dial with
	// credentials); only those are closed server-side by Close, so a
	// token borrowed via WithToken stays valid for its other holders.
	ownsSession bool
	retry       *retryState // nil unless Dial got WithRetryPolicy
}

// NewClient assembles a client from service implementations. Deployments
// normally use core.GAE.Client (local) or Dial (remote) instead.
func NewClient(s Services) *Client {
	return &Client{
		Scheduler: s.Scheduler,
		Steering:  s.Steering,
		JobMon:    s.JobMon,
		Estimator: s.Estimator,
		Quota:     s.Quota,
		Replica:   s.Replica,
		Monitor:   s.Monitor,
		State:     s.State,
	}
}

// Close releases the client's session and idle connections: a remote
// client that logged in itself logs out of the Clarens host; a local
// client has nothing to release, and one riding a shared token from
// WithToken leaves the token valid for its other holders.
func (c *Client) Close(ctx context.Context) error {
	if c.session == nil {
		return nil
	}
	defer c.session.Close()
	if !c.ownsSession || c.session.Token() == "" {
		return nil
	}
	return c.session.Logout(ctx)
}
