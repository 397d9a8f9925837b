package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// expectedJSON records, per workload, why it was chosen, its fixed
// parameters, which layer metric should move which end-to-end metric, the
// first measured numbers beside the baseline they replace, and the
// deterministic outcome of every synthesis on the default seed.
//
//go:embed expected.json
var expectedJSON []byte

type expectedFile struct {
	Workloads map[string]struct {
		// Outcomes maps seed, then circuit, to the recorded outcome.
		Outcomes map[string]map[string]outcome `json:"outcomes"`
	} `json:"workloads"`
}

var expected = mustParseExpected()

func mustParseExpected() expectedFile {
	var e expectedFile
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: expected.json:", err)
		os.Exit(1)
	}
	return e
}

func (e expectedFile) lookup(workload string, seed uint64, circuit string) (outcome, bool) {
	o, ok := e.Workloads[workload].Outcomes[strconv.FormatUint(seed, 10)][circuit]
	return o, ok
}
