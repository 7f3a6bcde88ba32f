// Package miras is a from-scratch Go reproduction of "MIRAS: Model-based
// Reinforcement Learning for Microservice Resource Allocation over
// Scientific Workflows" (Yang, Nguyen, Jin, Nahrstedt — ICDCS 2019).
//
// The library lives under internal/ (see DESIGN.md for the system
// inventory) and runnable programs under cmd/ and examples/. cmd/miras is
// the one front door: `miras figures` regenerates every figure of the
// paper's evaluation, and `miras serve|route|load` run and drive the HTTP
// serving tier. benchmark/ is the one performance instrument.
package miras
