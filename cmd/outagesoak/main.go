// Command outagesoak runs the smoke harness: the scenario table of
// internal/harness, every row booting its in-process fleet, driving it
// over real HTTP, and checking its own assertions. The soak row writes
// SOAK_report.json (churn events, per-tick accuracy and per-stage
// latency, the slowest traces and one merged multi-hop trace).
//
// Examples:
//
//	outagesoak                        # every row, as `make smoke` runs it
//	outagesoak -scenario soak -duration 60s -out SOAK_report.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"pmuoutage/internal/harness"
)

func main() {
	var (
		scenario = flag.String("scenario", "all", "row to run: serve, scale, fleet, soak, or all")
		duration = flag.Duration("duration", 6*time.Second, "soak row traffic length")
		out      = flag.String("out", "SOAK_report.json", "soak row report path")
	)
	flag.Parse()
	rows, err := harness.Select(*scenario)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *duration+10*time.Minute)
	defer cancel()
	for _, row := range rows {
		start := time.Now()
		if err := row.Run(ctx, harness.Options{SoakDuration: *duration, ReportPath: *out}); err != nil {
			log.Fatalf("outagesoak: %s: %v", row.Name, err)
		}
		fmt.Printf("outagesoak: %s ok (%s)\n", row.Name, time.Since(start).Round(time.Millisecond))
	}
}
