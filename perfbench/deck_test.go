package main

import (
	"slices"
	"testing"
	"time"
)

func TestDeckIsSeeded(t *testing.T) {
	phases := phaseLengths(20 * time.Second)
	a, b, c := buildDeck(1, phases), buildDeck(1, phases), buildDeck(2, phases)
	key := func(d *deck) []string {
		var out []string
		for _, r := range d.Timed {
			out = append(out, r.Key+r.Due.String())
		}
		return out
	}
	if !slices.Equal(key(a), key(b)) {
		t.Fatal("same seed, different decks")
	}
	if slices.Equal(key(a), key(c)) {
		t.Fatal("different seeds, same deck")
	}
}

func TestDeckShape(t *testing.T) {
	phases := phaseLengths(30 * time.Second)
	d := buildDeck(7, phases)
	count := map[string]int{}
	seen := map[string]bool{}
	var last time.Duration
	var perPhase [2]int
	for _, r := range d.Timed {
		count[r.Class]++
		perPhase[r.Phase]++
		if r.Due < last {
			t.Fatalf("schedule not ascending at %v", r.Due)
		}
		last = r.Due
		if r.Class != "hit" {
			// Every request outside the hot head must be new to the server,
			// or it would be answered from the LRU instead of its layer.
			if seen[r.Key] {
				t.Fatalf("%s key repeats: %.80s", r.Class, r.Key)
			}
			seen[r.Key] = true
		}
	}
	for ph, rate := range offeredRates {
		if want := int(rate * phases[ph].Seconds()); perPhase[ph] < want-1 || perPhase[ph] > want+1 {
			t.Errorf("phase %d: %d requests, want about %d", ph, perPhase[ph], want)
		}
	}
	total, block := len(d.Timed), 0
	for _, k := range classBlock {
		block += k
	}
	for i, c := range serveClasses {
		want := float64(classBlock[i]) / float64(block) * float64(total)
		if got := float64(count[c]); got < want-float64(len(serveClasses)) || got > want+float64(len(serveClasses)) {
			t.Errorf("class %s: %d requests, want about %.0f", c, count[c], want)
		}
	}
	if len(d.Disk) != count["disk"] || len(d.Capture) != warmAddrs || len(d.Hot) != hotKeys {
		t.Errorf("set-up lists: %d disk for %d disk requests, %d captures, %d hot keys", len(d.Disk), count["disk"], len(d.Capture), len(d.Hot))
	}
}
