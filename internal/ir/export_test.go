package ir

// ParseReference exposes the test-only reference parser to package ir_test.
var ParseReference = parseReference
