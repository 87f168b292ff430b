// Package lib holds one symbol of each kind the reachability scan must
// judge; the scan's own test lists which of them it must report.
package lib

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// Level reaches String only through fmt's Stringer: not reported.
type Level int

func (l Level) String() string { return "level" + strconv.Itoa(int(l)) }

// Describe is called from cmd/app: not reported.
func Describe(l Level) string { return fmt.Sprint(l) }

// Doc reaches MarshalJSON only through encoding/json: not reported.
type Doc struct{ Title string }

func (d Doc) MarshalJSON() ([]byte, error) { return json.Marshal(d.Title) }

// Validate is called only from lib_test.go: reported.
func (d Doc) Validate() error {
	if d.Title == "" {
		return fmt.Errorf("untitled")
	}
	return nil
}

// Stack's methods are called only on Stack[int]: not reported.
type Stack[T any] struct{ items []T }

func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

func (s *Stack[T]) Top() T { return s.items[len(s.items)-1] }

// Sink is a generic interface; Box[V] satisfies Sink[V].
type Sink[V any] interface{ Put(v V) }

// Box reaches Put only through Sink[int]: not reported.
type Box[V any] struct{ last V }

func (b *Box[V]) Put(v V) { b.last = v }

// Fill calls Put through the interface.
func Fill(s Sink[int], v int) { s.Put(v) }

// Uncalled is called by nothing: reported.
func Uncalled() {}
