"""Run one advclf CLI invocation with spans around every public function.

Usage: python3 perfbench/tracer.py SPANS_OUT -- ADVCLF_ARGS...

Every public function defined in advclf.data, nn, adversarial, metrics and
graph, plus advclf.cli.main, is replaced by a wrapper in each advclf module
that holds a reference to it (for example advclf.adversarial.forward and
advclf.graph.forward are both rebound). advclf.theory is left unwrapped. A
private helper's time therefore lands on the public function that called
it, which is in the same module.

Each span is [name, parent index, start, end, sizes]; the list is kept in
memory and pickled to SPANS_OUT when the invocation ends. The CLI
report still goes to stdout, unchanged.
"""

import inspect
import pickle
import sys
import time

MEASURED_MODULES = ("data", "nn", "adversarial", "metrics", "graph")


def _forward_sizes(args, result):
    rows = result[0].shape[0]
    widths = [a.shape[1] for a in result]
    return {"rows": rows, "flops": sum(2 * rows * a * b for a, b in zip(widths, widths[1:]))}


def _backward_sizes(args, result):
    grads, input_grad = result
    rows = input_grad.shape[0]
    # activations.T @ delta and delta @ weight.T per layer
    return {"flops": sum(4 * rows * gw.shape[0] * gw.shape[1] for gw, _ in grads)}


def _auc_sizes(args, result):
    return {"elements": len(args[0])}


def _pair_batch_sizes(args, result):
    return {"pairs": len(result.pos) + len(result.neg)}


SIZE_HOOKS = {
    "nn.forward": _forward_sizes,
    "nn.backward": _backward_sizes,
    "metrics.auc_roc": _auc_sizes,
    "graph.sample_pair_batch": _pair_batch_sizes,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        hook = SIZE_HOOKS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[2], span[3] = start, end
            if hook is not None:
                span[4] = hook(args, result)
            return result

        return traced

    def install(self):
        """Wrap the measured functions and rebind them in every advclf module."""
        import advclf.cli

        targets = {advclf.cli.main: "cli.main"}
        for short in MEASURED_MODULES:
            module = sys.modules[f"advclf.{short}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    targets[obj] = f"{short}.{attr}"
        wrappers = {fn: self.wrap(name, fn) for fn, name in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "advclf" and not mod_name.startswith("advclf."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_OUT -- ADVCLF_ARGS...", file=sys.stderr)
        return 2
    spans_out, cli_args = argv[0], argv[2:]
    import advclf.cli

    tracer = Tracer()
    tracer.install()
    code = advclf.cli.main(cli_args)
    with open(spans_out, "wb") as fh:
        pickle.dump(tracer.spans, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
