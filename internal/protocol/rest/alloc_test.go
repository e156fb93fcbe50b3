package rest

import (
	"strconv"
	"testing"

	"starlink/internal/testutil"
)

// TestRoundTripAllocBudget guards the direct writer and the token decoder: one feed
// marshal+parse round-trip must stay within a fixed allocation budget.
func TestRoundTripAllocBudget(t *testing.T) {
	feed := Feed{
		Title: "comments",
		Entries: []Entry{
			{ID: "c1", Title: "first", Summary: "nice shot"},
			{ID: "c2", Title: "second", Summary: "great light"},
		},
	}
	allocs := testing.AllocsPerRun(200, func() {
		wire, err := AppendFeed(nil, feed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseFeed(wire); err != nil {
			t.Fatal(err)
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs > 10 {
		t.Errorf("marshal+parse round-trip allocated %.1f times per op, budget 10", allocs)
	}
}

// TestParseFeedAllocBudget pins the decoder to what a feed is made of: its
// strings — five an entry here, and the title — and one list of entries,
// made once at its size when the feed has been read (collected on a pooled
// list until then), not grown entry by entry.
func TestParseFeedAllocBudget(t *testing.T) {
	feed := Feed{Title: "Search Results"}
	for i := 0; i < 50; i++ {
		n := strconv.Itoa(i)
		feed.Entries = append(feed.Entries, Entry{ID: "photo-" + n, Title: "Tree at dawn #" + n, Author: "someone",
			ContentType: "image/jpeg", ContentSrc: "http://photos.example/full/photo-" + n + ".jpg"})
	}
	wire, err := AppendFeed(nil, feed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseFeed(wire)
	if err != nil || len(got.Entries) != 50 || cap(got.Entries) != 50 || got.Entries[49] != feed.Entries[49] {
		t.Fatalf("parsed %d entries in room for %d, %v", len(got.Entries), cap(got.Entries), err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseFeed(wire); err != nil {
			t.Fatal(err)
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs > 252 {
		t.Errorf("parsing a 50-entry feed allocated %.0f times, budget 252 (251 strings and the list)", allocs)
	}
}
