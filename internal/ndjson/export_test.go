package ndjson

// The cell appenders, exported to the external tests that pin them to
// encoding/json byte for byte.
var (
	AppendString = appendString
	AppendValue  = appendValue
)
