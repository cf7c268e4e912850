// Package openmfa is a from-scratch, stdlib-only Go reproduction of
// "Securing HPC: Development of a Low Cost, Open Source Multi-factor
// Authentication Infrastructure" (Proctor, Storm, Hanlon, Mendoza — SC17).
//
// The library lives under internal/: see internal/core for the assembled
// infrastructure, DESIGN.md for the system inventory and experiment index,
// and EXPERIMENTS.md for paper-vs-measured results. The root package holds
// the per-figure/table micro-benchmarks and ablations (bench_test.go); the
// login benchmark is bench/.
package openmfa
