package jobmon

import (
	"context"

	"repro/internal/condor"
	"repro/pkg/gae"
)

// InfoDTO converts a job snapshot to the typed monitoring view the gae
// API exposes, carrying the paper's monitoring fields.
func InfoDTO(info condor.JobInfo) gae.JobInfo {
	return gae.JobInfo{
		ID:                info.ID,
		Pool:              info.Pool,
		Status:            info.Status.String(),
		Owner:             info.Owner,
		Cmd:               info.Cmd,
		Priority:          info.Priority,
		Env:               info.Env,
		QueuePosition:     info.QueuePosition,
		EstimatedRuntime:  info.EstimatedRuntime,
		RemainingEstimate: info.RemainingEstimate,
		WallclockSeconds:  info.WallClock.Seconds(),
		ElapsedSeconds:    info.Elapsed.Seconds(),
		CPUSeconds:        info.CPUSeconds,
		Progress:          info.Progress,
		InputMB:           info.InputMB,
		OutputMB:          info.OutputMB,
		Node:              info.Node,
		SubmitTime:        info.SubmitTime,
		StartTime:         info.StartTime,
		CompletionTime:    info.CompletionTime,
	}
}

// API returns the service's typed gae.JobMon contract — the JMExecutable.
// gae.Handlers binds it to Clarens through the jobmon rows.
func (s *Service) API() gae.JobMon { return jobMonAPI{s} }

type jobMonAPI struct{ s *Service }

func (a jobMonAPI) Job(_ context.Context, pool string, id int) (gae.JobInfo, error) {
	info, err := a.s.Job(pool, id)
	if err != nil {
		return gae.JobInfo{}, err
	}
	return InfoDTO(info), nil
}

func (a jobMonAPI) JobStatus(_ context.Context, pool string, id int) (string, error) {
	info, err := a.s.Job(pool, id)
	if err != nil {
		return "", err
	}
	return info.Status.String(), nil
}

func (a jobMonAPI) JobProgress(_ context.Context, pool string, id int) (float64, error) {
	info, err := a.s.Job(pool, id)
	if err != nil {
		return 0, err
	}
	return info.Progress, nil
}

func (a jobMonAPI) JobWallclock(_ context.Context, pool string, id int) (float64, error) {
	info, err := a.s.Job(pool, id)
	if err != nil {
		return 0, err
	}
	return info.WallClock.Seconds(), nil
}

func (a jobMonAPI) JobElapsed(_ context.Context, pool string, id int) (float64, error) {
	info, err := a.s.Job(pool, id)
	if err != nil {
		return 0, err
	}
	return info.Elapsed.Seconds(), nil
}

func (a jobMonAPI) JobRemaining(_ context.Context, pool string, id int) (float64, error) {
	info, err := a.s.Job(pool, id)
	if err != nil {
		return 0, err
	}
	return info.RemainingEstimate, nil
}

func (a jobMonAPI) JobQueuePosition(_ context.Context, pool string, id int) (int, error) {
	info, err := a.s.Job(pool, id)
	if err != nil {
		return 0, err
	}
	return info.QueuePosition, nil
}

func (a jobMonAPI) JobList(_ context.Context, pool string) ([]gae.JobInfo, error) {
	jobs, err := a.s.List(pool)
	if err != nil {
		return nil, err
	}
	out := make([]gae.JobInfo, len(jobs))
	for i, j := range jobs {
		out[i] = InfoDTO(j)
	}
	return out, nil
}

func (a jobMonAPI) Pools(context.Context) ([]string, error) {
	return a.s.Pools(), nil
}
