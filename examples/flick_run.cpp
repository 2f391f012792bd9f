/**
 * @file
 * flick_run — command-line driver for multi-ISA programs.
 *
 * Assembles and links .s files from disk into one multi-ISA executable,
 * loads it on the simulated platform, and calls a function:
 *
 *     flick_run [options] prog.hx64.s kernels.rv64.s
 *
 * File suffixes pick the ISA: *.hx64.s / *.host.s are host code,
 * *.rv64.s / *.nxp.s are NxP code (the paper's annotation step).
 *
 * Options:
 *     --call=SYM        function to run (default: main)
 *     --args=A,B,...    up to six integer arguments (0x hex ok)
 *     --trace           stream a disassembled instruction trace
 *     --journal         print the protocol trace stream (tick, point,
 *                       pid, device, arg)
 *     --stats           dump all component statistics at exit
 *     --extra-us=N      inflate each migration round trip by N us
 *
 * A malformed command line (an unknown option, a non-numeric, empty or
 * overflowing number, more than six arguments, no input files) prints
 * the usage text and exits with status 2.
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "flick/system.hh"

using namespace flick;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

[[noreturn]] void
usageError(const std::string &problem)
{
    std::fprintf(stderr,
                 "flick_run: %s\n"
                 "usage: flick_run [options] <file.hx64.s> <file.rv64.s>...\n"
                 "  --call=SYM      function to run (default: main)\n"
                 "  --args=A,B,...  up to %u integer arguments (0x hex ok)\n"
                 "  --trace         stream a disassembled instruction trace\n"
                 "  --journal       print the protocol trace stream\n"
                 "  --stats         dump all component statistics at exit\n"
                 "  --extra-us=N    inflate each migration round trip by N "
                 "us\n",
                 problem.c_str(), MigrationDescriptor::maxArgs);
    std::exit(2);
}

/** Parse a whole decimal or 0x-prefixed hex number; nullopt on an empty
 *  string, a sign, trailing junk or overflow. */
std::optional<std::uint64_t>
parseNumber(std::string_view text)
{
    int base = 10;
    if (text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X')) {
        base = 16;
        text.remove_prefix(2);
    }
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    auto [stop, ec] = std::from_chars(text.data(), end, value, base);
    if (text.empty() || ec != std::errc() || stop != end)
        return std::nullopt;
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string call_symbol = "main";
    std::vector<std::uint64_t> args;
    bool trace = false, print_journal = false, stats = false;
    Tick extra = 0;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--call=", 0) == 0) {
            call_symbol = arg.substr(7);
        } else if (arg.rfind("--args=", 0) == 0) {
            // Split on every comma, so "1,,2" and a trailing comma yield
            // empty tokens that parseNumber() rejects.
            std::string_view list = std::string_view(arg).substr(7);
            for (;;) {
                std::size_t comma = list.find(',');
                std::string_view tok = list.substr(0, comma);
                auto v = parseNumber(tok);
                if (!v)
                    usageError("bad number '" + std::string(tok) +
                               "' in " + arg);
                args.push_back(*v);
                if (comma == std::string_view::npos)
                    break;
                list.remove_prefix(comma + 1);
            }
            if (args.size() > MigrationDescriptor::maxArgs)
                usageError("at most " +
                           std::to_string(MigrationDescriptor::maxArgs) +
                           " arguments fit in a call");
        } else if (arg == "--trace") {
            trace = true;
        } else if (arg == "--journal") {
            print_journal = true;
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg.rfind("--extra-us=", 0) == 0) {
            auto v = parseNumber(std::string_view(arg).substr(11));
            if (!v || *v > maxTick / us(1))
                usageError("bad microsecond count in " + arg);
            extra = us(*v);
        } else if (arg.rfind("--", 0) == 0) {
            usageError("unknown option '" + arg + "'");
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty())
        usageError("no input files");

    FlickSystem sys(SystemConfig{}.withTrace(print_journal));
    Program prog;
    for (const std::string &f : files) {
        std::string source = readFile(f);
        if (endsWith(f, ".rv64.s") || endsWith(f, ".nxp.s")) {
            prog.addNxpAsm(source);
        } else if (endsWith(f, ".hx64.s") || endsWith(f, ".host.s")) {
            prog.addHostAsm(source);
        } else {
            fatal("'%s': name files *.hx64.s/*.host.s or "
                  "*.rv64.s/*.nxp.s to pick the ISA",
                  f.c_str());
        }
    }

    Process &proc = sys.load(prog);
    if (extra)
        sys.setExtraRoundTripLatency(extra);
    if (trace)
        sys.enableInstructionTrace(&std::cerr);

    Tick t0 = sys.now();
    std::uint64_t result = sys.submit(proc, CallSpec(call_symbol).withArgs(args)).wait();
    Tick elapsed = sys.now() - t0;

    if (print_journal) {
        std::printf("-- protocol trace --\n");
        for (const TraceEvent &e : sys.debug().trace().events())
            std::printf("%12.2fus  %-14s  pid=%d  dev=%u  arg=%#llx\n",
                        ticksToUs(e.tick - t0), tracePointName(e.point),
                        e.pid, static_cast<unsigned>(e.device),
                        (unsigned long long)e.arg);
    }
    if (stats) {
        std::printf("-- statistics --\n");
        sys.dumpStats(std::cout);
    }

    std::printf("%s(", call_symbol.c_str());
    for (std::size_t i = 0; i < args.size(); ++i)
        std::printf("%s%llu", i ? ", " : "",
                    (unsigned long long)args[i]);
    std::printf(") = %llu  [%.2f us simulated, %llu migrations]\n",
                (unsigned long long)result, ticksToUs(elapsed),
                (unsigned long long)proc.task->migrations);
    return 0;
}
