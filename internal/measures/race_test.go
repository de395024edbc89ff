//go:build race

package measures

// raceEnabled: under the race detector sync.Pool drops a share of what is put
// back, so pooled scratch is reallocated and allocation counts mean nothing.
const raceEnabled = true
