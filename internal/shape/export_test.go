package shape

// IDTableSize reports how many identity keys the process has interned.
func IDTableSize() int {
	ids.Lock()
	defer ids.Unlock()
	return len(ids.m)
}
