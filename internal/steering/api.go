package steering

import (
	"context"

	"repro/internal/jobmon"
	"repro/pkg/gae"
)

// API returns the service's typed gae.Steering contract. userOf resolves
// the acting user from the request context (the Clarens host supplies its
// session lookup; local clients a fixed identity); per-task ownership is
// enforced by the Session Manager underneath.
func (s *Service) API(userOf gae.UserResolver) gae.Steering {
	return steeringAPI{s: s, userOf: userOf}
}

type steeringAPI struct {
	s      *Service
	userOf gae.UserResolver
}

func (a steeringAPI) Jobs(ctx context.Context) ([]string, error) {
	refs := a.s.Watched(a.userOf(ctx))
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.String()
	}
	return out, nil
}

func (a steeringAPI) TaskStatus(ctx context.Context, plan, task string) (gae.SteeringStatus, error) {
	st, err := a.s.TaskStatus(TaskRef{Plan: plan, Task: task})
	if err != nil {
		return gae.SteeringStatus{}, err
	}
	out := gae.SteeringStatus{
		Plan:     st.Ref.Plan,
		Task:     st.Ref.Task,
		Owner:    st.Owner,
		Site:     st.Assignment.Site,
		CondorID: st.Assignment.CondorID,
		State:    st.Assignment.State.String(),
		Attempts: st.Assignment.Attempts,
	}
	if st.HaveJob {
		job := jobmon.InfoDTO(st.Job)
		out.Job = &job
	}
	return out, nil
}

func (a steeringAPI) Kill(ctx context.Context, plan, task string) error {
	return a.s.Kill(a.userOf(ctx), TaskRef{Plan: plan, Task: task})
}

func (a steeringAPI) Pause(ctx context.Context, plan, task string) error {
	return a.s.Pause(a.userOf(ctx), TaskRef{Plan: plan, Task: task})
}

func (a steeringAPI) Resume(ctx context.Context, plan, task string) error {
	return a.s.Resume(a.userOf(ctx), TaskRef{Plan: plan, Task: task})
}

func (a steeringAPI) Move(ctx context.Context, plan, task, site string) (gae.MoveResult, error) {
	asg, err := a.s.Move(a.userOf(ctx), TaskRef{Plan: plan, Task: task}, site)
	if err != nil {
		return gae.MoveResult{}, err
	}
	return gae.MoveResult{Site: asg.Site, CondorID: asg.CondorID}, nil
}

func (a steeringAPI) SetPriority(ctx context.Context, plan, task string, priority int) error {
	return a.s.SetPriority(a.userOf(ctx), TaskRef{Plan: plan, Task: task}, priority)
}

func (a steeringAPI) EstimateCompletion(_ context.Context, plan, task string) (float64, error) {
	return a.s.EstimateCompletion(TaskRef{Plan: plan, Task: task})
}

func (a steeringAPI) Notifications(ctx context.Context) ([]gae.Notification, error) {
	return a.s.Notifications(a.userOf(ctx)), nil
}

func (a steeringAPI) Preference(context.Context) (string, error) {
	return a.s.Preference.String(), nil
}

func (a steeringAPI) SetPreference(_ context.Context, preference string) (string, error) {
	pref, err := ParsePreference(preference)
	if err != nil {
		return "", err
	}
	a.s.Preference = pref
	return pref.String(), nil
}
