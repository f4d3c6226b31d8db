package main

import _ "unsafe" // for go:linkname

// nanotime is the runtime's monotonic clock: one vDSO read, cheaper than
// time.Now, which also reads the wall clock.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64
