//go:build !linux

package main

import (
	"errors"
	"os/exec"
)

func fsType(string) string { return "unknown" }

func peakRSSMB(int) (float64, error) { return 0, errors.New("peak RSS needs /proc (linux)") }

func cpuTicks() (steal, total float64, ok bool) { return 0, 0, false }

func dieWithParent(*exec.Cmd) {}
