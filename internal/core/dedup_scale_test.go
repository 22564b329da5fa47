//go:build !bbdebug

package core

// heavyBuild is false in normal builds: the dedup and duplicate-free
// tests run their full-size workloads.
const heavyBuild = false
