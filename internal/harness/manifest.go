package harness

import "coherentleak/internal/store"

// The manifest cell-cache now lives in internal/store as the in-memory
// implementation of the content-addressed CellStore interface (the
// on-disk, replica-shared implementation is store.Disk). These aliases
// keep the harness's historical names working for every existing call
// site: a Manifest IS a store.Memory.

// ManifestVersion identifies the on-disk manifest layout. A version
// bump invalidates old caches wholesale.
const ManifestVersion = store.ManifestVersion

// ManifestEntry is one cached cell output.
type ManifestEntry = store.Entry

// Manifest is the in-memory LRU cell store with snapshot + journal
// persistence (see store.Memory).
type Manifest = store.Memory

// NewManifest returns an empty manifest.
func NewManifest() *Manifest { return store.NewMemory() }

// LoadManifest reads a manifest file and replays its journal (see
// store.LoadMemory). A version mismatch yields an empty manifest (the
// cache simply starts cold); an unreadable or malformed snapshot is
// reported as an error.
func LoadManifest(path string) (*Manifest, error) { return store.LoadMemory(path) }
