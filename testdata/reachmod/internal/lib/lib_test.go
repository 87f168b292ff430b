package lib

import "testing"

func TestValidate(t *testing.T) {
	if (Doc{}).Validate() == nil {
		t.Fatal("an untitled doc validated")
	}
}
