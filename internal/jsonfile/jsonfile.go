// Package jsonfile reads the repository's strict JSON input files: a
// fairness scenario (workload.LoadScenario) and a deployment
// (core.LoadDeployment). It imports nothing of the repository, so
// either loader can call it.
package jsonfile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Read decodes the file at path into v. It is strict: an unknown field
// or data after the one JSON value is an error. Every error names path.
func Read(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%s: trailing data after the JSON value", path)
	}
	return nil
}
