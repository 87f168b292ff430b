package main

import (
	"encoding/json"
	"fmt"

	"reachmod/internal/lib"
)

func main() {
	fmt.Println(lib.Describe(2))
	out, _ := json.Marshal(lib.Doc{Title: "t"})
	fmt.Println(string(out))
	var s lib.Stack[int]
	s.Push(1)
	fmt.Println(s.Top())
	lib.Fill(&lib.Box[int]{}, 3)
}
