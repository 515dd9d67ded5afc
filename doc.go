// Package repro is a from-scratch Go reproduction of "Serverless Computing:
// One Step Forward, Two Steps Back" (Hellerstein et al., CIDR 2019).
//
// The paper's evaluation ran on AWS; this repository rebuilds every system
// it touched as a deterministic discrete-event simulation — a Lambda-style
// FaaS platform, S3/DynamoDB/SQS-style services, EC2 instances with EBS,
// ZeroMQ-style direct messaging, a datacenter network with max-min fair
// bandwidth sharing — plus the real workloads (an MLP with Adam, a
// dirty-word classifier, Garcia-Molina's bully election) and regenerates
// every table and figure.
//
// Entry points:
//
//   - internal/core: cloud assembly, calibration constants, and one
//     experiment per paper artifact (also see cmd/faasbench).
//   - internal/core benchmarks: one testing.B benchmark per table and
//     figure (go test -run '^$' -bench . ./internal/core).
//   - examples/: runnable walkthroughs of the public API.
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for paper-vs-measured results.
package repro
