package service

// streamEvent is the decode-side union of every job-stream line (see
// lifecycleEvent, retryEvent, sampleEvent and cellEvent in job.go): what
// the tests unmarshal each line into.
type streamEvent struct {
	// Type is "start", "sample", "cell", "retry" or "done".
	Type  string `json:"type"`
	Job   string `json:"job,omitempty"`
	Trace string `json:"trace,omitempty"`
	Kind  string `json:"kind,omitempty"`

	TimeS    float64   `json:"t_s,omitempty"`
	TempsC   []float64 `json:"temps_c,omitempty"`
	FreqsMHz []int     `json:"freqs_mhz,omitempty"`
	Utils    []float64 `json:"utils,omitempty"`
	PowerW   float64   `json:"power_w,omitempty"`

	Scenario   string   `json:"scenario,omitempty"`
	Governor   string   `json:"governor,omitempty"`
	Passed     *bool    `json:"passed,omitempty"`
	Violations []string `json:"violations,omitempty"`
	ExecTimeS  float64  `json:"exec_time_s,omitempty"`
	EnergyJ    float64  `json:"energy_j,omitempty"`
	PeakTempC  float64  `json:"peak_temp_c,omitempty"`

	Attempt int     `json:"attempt,omitempty"`
	DelayS  float64 `json:"delay_s,omitempty"`

	Status Status `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}
