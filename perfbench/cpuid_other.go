//go:build !amd64

package main

func cpuModel() string { return "unknown" }

func llcBytes() int64 { return 0 }
