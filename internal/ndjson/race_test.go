//go:build race

package ndjson_test

func init() { raceEnabled = true }
