"""Known-bad hot-path fixture: per-item loops over batch parameters."""


class ZipWalker:
    def process_batch(self, a, b, sign=None):
        total = 0
        for item, witness in zip(a.tolist(), b.tolist()):  # MARK: zip-loop
            total += item + witness
        self.total = total

    def finalize(self):
        return self.total


class IndexWalker:
    def update_batch(self, deltas, indices):
        for i in range(len(deltas)):  # MARK: range-len-loop
            self.apply(indices[i], deltas[i])

    def apply(self, index, delta):
        pass


class EnumerateWalker:
    def observe_batch(self, a, b, degree_after):
        for offset, degree in enumerate(degree_after):  # MARK: enum-loop
            self.note(offset, degree)

    def note(self, offset, degree):
        pass


class CheckingWalker:
    def check_batch(self, a, b, sign=None):
        for item in a:  # MARK: check-loop
            if item < 0:
                raise ValueError(item)
