package chaos

import (
	"encoding/json"
	"fmt"
	"os"
)

// CorpusEntry is one committed regression scenario with the verdict it
// must reproduce (always a non-violation: the corpus pins scenarios
// that once exposed a bug, or that cover a transport path, as fixed).
type CorpusEntry struct {
	Scenario Scenario `json:"scenario"`
	// Want is the verdict the replay must produce.
	Want Verdict `json:"want"`
	// Note says why the entry is in the corpus.
	Note string `json:"note,omitempty"`
}

// LoadCorpus reads a corpus file (a JSON array of entries).
func LoadCorpus(path string) ([]CorpusEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []CorpusEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("chaos: corpus %s: %w", path, err)
	}
	return entries, nil
}
