//go:build race

package selector

func init() { raceEnabled = true }
