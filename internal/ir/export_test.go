package ir

// ParseReference exposes the test-only reference parser to package ir_test.
var ParseReference = parseReference

// parseConstToken parses an integer/float/null/undef literal of type t.
func parseConstToken(t *Type, tok string) (*Const, error) {
	c := new(Const)
	if err := fillConst(c, t, tok); err != nil {
		return nil, err
	}
	return c, nil
}

// splitTop splits s on sep at bracket depth zero ((), [], {}).
func splitTop(s string, sep byte) []string {
	return appendSplitTop(nil, s, sep)
}
