package docstore

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"tasm/internal/atomicio"
)

// ManifestVersion is the current corpus manifest schema version.
const ManifestVersion = 1

// Manifest is the census of a corpus directory: every persisted document
// with its identity, size, and the relative path of its store file. It is
// stored as pretty-printed JSON (the one human-edited, human-debugged file
// of the corpus format; the stores it points at are binary).
type Manifest struct {
	// Version is the manifest schema version, ManifestVersion.
	Version int `json:"version"`
	// P and Q are the pq-gram shape parameters the corpus profiles its
	// documents and queries with; profiles with different shapes are not
	// comparable, so the shape is fixed per corpus at creation.
	P int `json:"p"`
	Q int `json:"q"`
	// NextID is the id the next ingested document will receive. Ids are
	// never reused, so deleting a document cannot alias a cached result.
	NextID int `json:"next_id"`
	// Generation counts document-set changes (ingests and removals) over
	// the corpus's whole lifetime. It is persisted so generation-keyed
	// result caches that outlive the serving process (a router's LRU over
	// restarting leaves) can never see a generation value repeat for a
	// different document set. Absent in pre-PR-5 manifests, which load
	// as 0 and become persistent on their next mutation.
	Generation uint64 `json:"generation,omitempty"`
	// Quarantined counts documents the integrity scrub has moved to the
	// corpus's quarantine directory over its lifetime. Persisted so the
	// count survives restarts and keeps telling operators data was lost
	// until they act on it. Absent in pre-PR-8 manifests (loads as 0).
	Quarantined int `json:"quarantined,omitempty"`
	// Docs lists the documents in ascending id order.
	Docs []ManifestDoc `json:"docs"`
}

// ManifestDoc describes one persisted document.
type ManifestDoc struct {
	// ID is the document's permanent numeric id within the corpus.
	ID int `json:"id"`
	// Name is the caller-supplied document name, unique in the corpus.
	Name string `json:"name"`
	// Nodes is the document's node count.
	Nodes int `json:"nodes"`
	// RootLabel is the label of the document's root node.
	RootLabel string `json:"root_label"`
	// Store is the document's postorder store file, relative to the
	// corpus directory.
	Store string `json:"store"`
}

// NewManifest returns an empty manifest for a corpus with the given
// pq-gram shape.
func NewManifest(p, q int) *Manifest {
	return &Manifest{Version: ManifestVersion, P: p, Q: q, NextID: 1}
}

// ReadManifest loads and validates a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("docstore: parsing manifest %s: %w", path, err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("docstore: manifest %s has version %d, want %d", path, m.Version, ManifestVersion)
	}
	if m.P < 1 || m.Q < 1 {
		return nil, fmt.Errorf("docstore: manifest %s has invalid pq-gram shape (%d,%d)", path, m.P, m.Q)
	}
	seen := make(map[string]bool, len(m.Docs))
	for i, d := range m.Docs {
		if d.ID < 1 || d.ID >= m.NextID {
			return nil, fmt.Errorf("docstore: manifest %s: doc %d has id %d outside [1,%d)", path, i, d.ID, m.NextID)
		}
		if i > 0 && d.ID <= m.Docs[i-1].ID {
			return nil, fmt.Errorf("docstore: manifest %s: doc ids not strictly ascending at index %d", path, i)
		}
		if d.Name == "" || seen[d.Name] {
			return nil, fmt.Errorf("docstore: manifest %s: doc %d has empty or duplicate name %q", path, d.ID, d.Name)
		}
		seen[d.Name] = true
		if d.Nodes < 1 {
			return nil, fmt.Errorf("docstore: manifest %s: doc %q has node count %d", path, d.Name, d.Nodes)
		}
		if d.Store == "" {
			return nil, fmt.Errorf("docstore: manifest %s: doc %q is missing its store path", path, d.Name)
		}
	}
	return &m, nil
}

// WriteManifest durably persists a manifest via the atomicio commit
// protocol (temp file, fsync, rename, directory fsync), so a crash at
// any point leaves either the previous manifest or the new one — never
// a torn or unflushed file.
func WriteManifest(path string, m *Manifest) error {
	return WriteManifestFS(atomicio.OS, path, m)
}

// WriteManifestFS is WriteManifest against an explicit filesystem, so
// crash-injection harnesses can script failures at every commit step.
func WriteManifestFS(fs atomicio.FS, path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return atomicio.WriteFile(fs, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
