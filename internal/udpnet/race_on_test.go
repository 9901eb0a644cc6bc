//go:build race

package udpnet_test

// raceEnabled reports that the race detector is compiled in; see
// TestReceiveAllocsPerDatagram.
const raceEnabled = true
