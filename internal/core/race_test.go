//go:build race

package core

// Under the race detector sync.Pool drops a random quarter of what is
// put back, so encoding/json's pooled encoder state, which
// MarshalArtifact takes for its head and tail, is rebuilt a varying
// number of times: allocation counts are not pinned there.
func init() { raceDetector = true }
