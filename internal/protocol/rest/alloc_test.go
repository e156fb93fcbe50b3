package rest

import (
	"fmt"
	"strconv"
	"testing"

	"starlink/internal/message"
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

// TestParseFeedAllocBudget pins the decoder to what a feed is made of: one
// string of the text it keeps, every field a piece of it, and one list of
// entries, both made once at their size when the feed has been read
// (collected on a pooled tape until then), not grown entry by entry.
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
	if allocs > 2 {
		t.Errorf("parsing a 50-entry feed allocated %.0f times, budget 2 (one string and the list)", allocs)
	}
}

// TestFieldsOutliveTheTape: what a decode makes reads the same after the
// pooled tape it was collected on has decoded other feeds, for its text is
// a string of its own, not a view of the tape.
func TestFieldsOutliveTheTape(t *testing.T) {
	feed := func(tag string) []byte {
		var f Feed
		for i := 0; i < 3; i++ {
			n := tag + strconv.Itoa(i)
			f.Entries = append(f.Entries, Entry{ID: "id-" + n, Title: "title-" + n, Summary: "summary-" + n,
				Author: "author-" + n, ContentType: "type-" + n, ContentSrc: "src-" + n})
		}
		wire, err := AppendFeed(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	first := feed("a")
	fields, err := ParseFeedFields(nil, first, KeepAll)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseFeed(first)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(message.New("", fields...), parsed)
	for _, tag := range []string{"b", "c", "d", "e", "f", "g", "h", "i"} {
		other := feed(tag)
		if _, err := ParseFeedFields(nil, other, KeepAll); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseFeed(other); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(message.New("", fields...), parsed); got != want {
		t.Errorf("after other feeds were decoded, the first reads\n%s\nwant\n%s", got, want)
	}
}
