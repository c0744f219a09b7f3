"""Command-line front end: simulate, train-detector, train-attacker, evaluate, report."""

from __future__ import annotations

import argparse
import sys

from . import harness


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gridevade",
                                description="Gabor-noise evasion-attack testbed")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="run config YAML (default: shipped)")
        sp.add_argument("--seed", type=int, default=None, help="master seed override")
        sp.add_argument("--out", default="run", help="output directory")

    common(sub.add_parser("simulate", help="generate and export the clean trace"))
    common(sub.add_parser("train-detector", help="train the contingency detector"))
    common(sub.add_parser("train-attacker", help="train the DDPG attack agent"))
    ev = sub.add_parser("evaluate", help="evaluate attack baselines")
    common(ev)
    ev.add_argument("--baselines", default=",".join(harness.BASELINES),
                    help="comma-separated subset of: " + ", ".join(harness.BASELINES))
    rp = sub.add_parser("report", help="summarize a completed run directory")
    rp.add_argument("--out", default="run", help="run directory to summarize")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            print(harness.cmd_report(args.out))
            return 0
        cfg = harness.load_config(args.config, seed_override=args.seed)
        if args.command == "simulate":
            paths = harness.cmd_simulate(cfg, args.out)
            print(f"wrote {', '.join(str(p) for p in paths)}")
        elif args.command == "train-detector":
            _, report, loss = harness.cmd_train_detector(cfg, args.out)
            print(f"final loss {loss:.4g}, held-out accuracy {report.frame_accuracy:.4f}, "
                  f"delay {report.detection_delay}")
        elif args.command == "train-attacker":
            _, curve = harness.cmd_train_attacker(cfg, args.out)
            if curve:
                print(f"trained {len(curve)} episodes; best return "
                      f"{max(r['return'] for r in curve):.4g}")
            else:
                print("trained 0 episodes")
        elif args.command == "evaluate":
            baselines = [b.strip() for b in args.baselines.split(",") if b.strip()]
            results = harness.cmd_evaluate(cfg, args.out, baselines=baselines)
            for name, m in results.items():
                rate = m.attacked_false_alarm_rate
                rate = "n/a" if rate is None else f"{rate:.4f}"
                print(f"{name}: evasion_success_rate={m.evasion_success_rate:.4f} "
                      f"mean_posterior_drop={m.mean_posterior_drop:.4f} "
                      f"attacked_false_alarm_rate={rate}")
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
