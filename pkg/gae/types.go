package gae

import "time"

// The request/response types below are the wire contract of every GAE
// service. The xmlrpc tags fix the struct member names on the XML-RPC
// transport, and so in the gae command's JSON arguments and replies (a
// plan file is a PlanSpec); the json tags, which name PlanSpec/TaskSpec
// members the same way, fix a plan's encoding in the journal and the
// snapshot. Field names, member names, and shapes are pinned by the
// transport-parity test suite.

// TaskSpec is one node of an abstract job plan.
type TaskSpec struct {
	ID         string  `json:"id" xmlrpc:"id"`
	CPUSeconds float64 `json:"cpu_seconds" xmlrpc:"cpu_seconds"`

	// Estimator covariates (the SDSC accounting attributes).
	Queue     string  `json:"queue" xmlrpc:"queue"`
	Partition string  `json:"partition" xmlrpc:"partition"`
	Nodes     int     `json:"nodes" xmlrpc:"nodes"`
	JobType   string  `json:"job_type" xmlrpc:"job_type"`
	ReqHours  float64 `json:"req_cpu_hours" xmlrpc:"req_cpu_hours"`

	Priority       int        `json:"priority" xmlrpc:"priority"`
	DependsOn      []string   `json:"depends_on" xmlrpc:"depends_on"`
	Inputs         []FileSpec `json:"inputs,omitempty" xmlrpc:"inputs,omitempty"`
	OutputFile     string     `json:"output_file" xmlrpc:"output_file"`
	OutputMB       float64    `json:"output_mb" xmlrpc:"output_mb"`
	Checkpointable bool       `json:"checkpointable" xmlrpc:"checkpointable"`
	// Requirements is an optional ClassAd constraint on machines.
	Requirements string `json:"requirements" xmlrpc:"requirements"`
	// FailAfterCPU injects a fault after this many consumed CPU-seconds
	// (zero disables) — used by recovery tests and steering ablations.
	FailAfterCPU float64 `json:"fail_after_cpu,omitempty" xmlrpc:"fail_after_cpu,omitempty"`
}

// FileSpec names an input dataset a task stages to its execution site
// before running. An empty site lets the replica catalog pick the source.
type FileSpec struct {
	Name   string  `json:"name" xmlrpc:"name"`
	Site   string  `json:"site,omitempty" xmlrpc:"site,omitempty"`
	SizeMB float64 `json:"size_mb,omitempty" xmlrpc:"size_mb,omitempty"`
}

// PlanSpec is an abstract job plan: a named DAG of tasks. The owner is
// always the acting user and is never part of the request.
type PlanSpec struct {
	Name  string     `json:"name" xmlrpc:"name"`
	Tasks []TaskSpec `json:"tasks" xmlrpc:"tasks"`
}

// TaskAssignment is one task's concrete binding within a plan status.
type TaskAssignment struct {
	Task     string `xmlrpc:"task"`
	Site     string `xmlrpc:"site"`
	CondorID int    `xmlrpc:"condorid"`
	State    string `xmlrpc:"state"`
	Attempts int    `xmlrpc:"attempts"`
}

// PlanStatus is the tracked state of a submitted plan.
type PlanStatus struct {
	Name      string           `xmlrpc:"name"`
	Owner     string           `xmlrpc:"owner"`
	Done      bool             `xmlrpc:"done"`
	Succeeded bool             `xmlrpc:"succeeded"`
	Tasks     []TaskAssignment `xmlrpc:"tasks"`
}

// JobInfo is the Job Monitoring Service's full snapshot of one job,
// exposing the paper's monitoring fields.
type JobInfo struct {
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

// SteeringStatus is the Steering Service's combined assignment plus live
// monitoring view of a task. Job is nil until the task has a live job.
type SteeringStatus struct {
	Plan     string   `xmlrpc:"plan"`
	Task     string   `xmlrpc:"task"`
	Owner    string   `xmlrpc:"owner"`
	Site     string   `xmlrpc:"site"`
	CondorID int      `xmlrpc:"condorid"`
	State    string   `xmlrpc:"state"`
	Attempts int      `xmlrpc:"attempts"`
	Job      *JobInfo `xmlrpc:"job,omitempty"`
}

// MoveResult reports where a redirected task landed.
type MoveResult struct {
	Site     string `xmlrpc:"site"`
	CondorID int    `xmlrpc:"condorid"`
}

// Notification is one queued steering message.
type Notification struct {
	Time    time.Time `xmlrpc:"time"`
	Plan    string    `xmlrpc:"plan"`
	Task    string    `xmlrpc:"task"`
	Kind    string    `xmlrpc:"kind"`
	Message string    `xmlrpc:"message"`
}

// TaskProfile carries the estimator covariates of a prospective task.
type TaskProfile struct {
	Queue     string  `xmlrpc:"queue"`
	Partition string  `xmlrpc:"partition"`
	Nodes     int     `xmlrpc:"nodes"`
	JobType   string  `xmlrpc:"job_type"`
	ReqHours  float64 `xmlrpc:"req_cpu_hours"`
}

// RuntimeEstimate is a site's runtime prediction for a task profile.
type RuntimeEstimate struct {
	Seconds float64 `xmlrpc:"seconds"`
	// Similar is the size of the similar-task set used.
	Similar int `xmlrpc:"similar"`
	// Statistic names the statistic actually applied ("mean",
	// "regression", ...).
	Statistic string `xmlrpc:"statistic"`
}

// QueueEstimate predicts a queued job's wait before starting.
type QueueEstimate struct {
	Seconds    float64 `xmlrpc:"seconds"`
	TasksAhead int     `xmlrpc:"tasks_ahead"`
}

// TransferEstimate predicts a data movement between sites:
// Seconds = LatencySeconds + size/BandwidthMBps, where BandwidthMBps is
// the latency-excluded steady-state share the probe measured (current
// link contention included) and the one-way latency is charged once.
type TransferEstimate struct {
	Seconds        float64 `xmlrpc:"seconds"`
	BandwidthMBps  float64 `xmlrpc:"bandwidth_mbps"`
	LatencySeconds float64 `xmlrpc:"latency_seconds,omitempty"`
}

// CostQuote prices a prospective usage at the cheapest candidate site.
type CostQuote struct {
	Site string  `xmlrpc:"site"`
	Cost float64 `xmlrpc:"cost"`
}

// ChargeRequest records billable usage against a user's account.
type ChargeRequest struct {
	User       string  `xmlrpc:"user"`
	Site       string  `xmlrpc:"site"`
	CPUSeconds float64 `xmlrpc:"cpu_seconds"`
	MB         float64 `xmlrpc:"mb"`
	Note       string  `xmlrpc:"note,omitempty"`
}

// ReplicaLocation is one replica of a dataset.
type ReplicaLocation struct {
	Site   string  `xmlrpc:"site"`
	SizeMB float64 `xmlrpc:"size_mb"`
}

// ReplicaChoice is the closest replica to a destination plus the
// measured transfer time to reach it.
type ReplicaChoice struct {
	Site            string  `xmlrpc:"site"`
	SizeMB          float64 `xmlrpc:"size_mb"`
	TransferSeconds float64 `xmlrpc:"transfer_s"`
}

// MetricPoint is one sample of a monitoring series.
type MetricPoint struct {
	Time  time.Time `xmlrpc:"t"`
	Value float64   `xmlrpc:"value"`
}

// GridEvent is one job state-change event from the repository.
type GridEvent struct {
	Time   time.Time `xmlrpc:"t"`
	Kind   string    `xmlrpc:"kind"`
	Detail string    `xmlrpc:"detail"`
}

// SiteWeather is the per-site load snapshot of the "Grid weather" view.
type SiteWeather struct {
	Site    string  `xmlrpc:"site"`
	Load    float64 `xmlrpc:"load"`
	Running float64 `xmlrpc:"running"`
	Free    float64 `xmlrpc:"free"`
}
