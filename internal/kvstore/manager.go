package kvstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"subzero/internal/obs"
)

// Manager allocates one Store per namespace — the "operator specific
// datastores" of the paper's architecture (Figure 3). A Manager rooted at a
// directory keeps each store's log in a file under it; a Manager with an
// empty root keeps the logs in memory, which tests and CPU-bound
// benchmarks use.
type Manager struct {
	mu     sync.Mutex
	root   string
	stores map[string]Store
	kv     *obs.KVObs
}

// NewManager creates a manager. If root is non-empty the directory is
// created and each store keeps its log in one file there; otherwise stores
// are in-memory. Every store the manager opens counts its operations into
// kv; a nil kv counts nothing.
//
// The directory belongs to the manager and its logs to its process: no
// store is read back, so NewManager removes every store file under root —
// the logs an earlier process left and the ".meta"/".meta.tmp" sidecars
// earlier builds wrote beside them.
func NewManager(root string, kv *obs.KVObs) (*Manager, error) {
	if root != "" {
		if err := os.MkdirAll(root, 0o755); err != nil {
			return nil, fmt.Errorf("kvstore: create root %s: %w", root, err)
		}
		for _, pattern := range []string{"*.log", "*.meta", "*.meta.tmp"} {
			stale, _ := filepath.Glob(filepath.Join(root, pattern)) // the patterns are well-formed
			for _, path := range stale {
				if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
					return nil, fmt.Errorf("kvstore: remove stale store file: %w", err)
				}
			}
		}
	}
	return &Manager{root: root, stores: make(map[string]Store), kv: kv}, nil
}

// Open returns the store for a namespace, creating it empty on first use.
// Namespaces are arbitrary strings; they are sanitized into file names.
func (m *Manager) Open(namespace string) (Store, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.stores[namespace]; ok {
		return s, nil
	}
	var s *LogStore
	if m.root == "" {
		s = NewMem()
	} else {
		fs, err := OpenFile(filepath.Join(m.root, sanitize(namespace)+".log"))
		if err != nil {
			return nil, err
		}
		s = fs
	}
	s.obs = m.kv
	m.stores[namespace] = s
	return s, nil
}

// dropLocked closes and removes one namespace's store and backing file.
// Callers hold m.mu.
func (m *Manager) dropLocked(namespace string) error {
	s, ok := m.stores[namespace]
	if !ok {
		return nil
	}
	delete(m.stores, namespace)
	closeErr := s.Close()
	if m.root != "" {
		path := filepath.Join(m.root, sanitize(namespace)+".log")
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) && closeErr == nil {
			closeErr = err
		}
	}
	return closeErr
}

// Drop closes and deletes a namespace's store and backing file.
func (m *Manager) Drop(namespace string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropLocked(namespace)
}

// DropPrefix closes and deletes every namespace whose name starts with
// prefix, returning how many stores were released. The run registry uses
// it to free all lineage stores of a dropped run in one call.
func (m *Manager) DropPrefix(prefix string) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var dropped int
	var firstErr error
	for ns := range m.stores {
		if !strings.HasPrefix(ns, prefix) {
			continue
		}
		dropped++
		if err := m.dropLocked(ns); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return dropped, firstErr
}

// Namespaces returns the open namespaces in sorted order.
func (m *Manager) Namespaces() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.stores))
	for ns := range m.stores {
		out = append(out, ns)
	}
	sort.Strings(out)
	return out
}

// Close closes every open store.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var firstErr error
	for ns, s := range m.stores {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("kvstore: close %s: %w", ns, err)
		}
	}
	m.stores = make(map[string]Store)
	return firstErr
}

// sanitize maps a namespace to a safe file-name fragment, injectively:
// distinct namespaces always get distinct fragments, so two operators'
// lineage stores can never silently merge on disk (previously "a/b" and
// "a_b" both mapped to "a_b").
//
// The encoding is a prefix-free escape: lowercase letters, digits, '-',
// and '.' pass through; '_' becomes "__"; an uppercase letter becomes
// "_u" plus its lowercase form; any other rune becomes "_x<hex>_".
// Decoding left to right is unambiguous — after a '_' the next byte is
// '_' (a literal underscore), 'u' (one case-folded letter), or 'x' (a
// hex escape terminated by '_') — so the mapping is invertible and
// therefore injective. Because the output alphabet contains no uppercase
// at all, injectivity survives case-insensitive filesystems ("Node" and
// "node" get distinct files on macOS/Windows too).
func sanitize(ns string) string {
	if ns == "" {
		// "_e_" is not producible by the escape above ('_' is always
		// followed by '_', 'u', or 'x'), so it cannot collide.
		return "_e_"
	}
	var b strings.Builder
	for _, r := range ns {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '.':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteByte('_')
			b.WriteByte('u')
			b.WriteRune(r - 'A' + 'a')
		case r == '_':
			b.WriteString("__")
		default:
			fmt.Fprintf(&b, "_x%x_", r)
		}
	}
	return b.String()
}
