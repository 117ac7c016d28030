# Reproduction pin: run bench_paper (every paper table, figure and
# ablation) once per thread count and byte-compare each run's stdout
# against the one golden, so the output is pinned to be independent
# of SIGCOMP_THREADS as well as correct.
#
#   cmake -DBENCH=<bench_paper> -DGOLDEN=<golden/paper.txt>
#         -DOUT_DIR=<output dir> -P paper_golden.cmake
#
# With SIGCOMP_UPDATE_GOLDEN=1 in the environment the golden is
# rewritten from the threads=1 output instead (after an INTENTIONAL
# change to a table, which the diff then shows in review); the
# threads=4 run must still match it.

file(MAKE_DIRECTORY "${OUT_DIR}")

set(failed "")
foreach(threads 1 4)
    set(actual "${OUT_DIR}/paper_threads${threads}.txt")
    execute_process(COMMAND ${CMAKE_COMMAND} -E env
                            SIGCOMP_THREADS=${threads} "${BENCH}"
                    OUTPUT_FILE "${actual}"
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(SEND_ERROR "bench_paper (threads=${threads}) exited "
                           "with ${rc}")
        list(APPEND failed ${threads})
        continue()
    endif()
    if(DEFINED ENV{SIGCOMP_UPDATE_GOLDEN} AND threads EQUAL 1)
        file(COPY_FILE "${actual}" "${GOLDEN}")
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            "${GOLDEN}" "${actual}"
                    RESULT_VARIABLE differs)
    if(differs)
        execute_process(COMMAND diff -u "${GOLDEN}" "${actual}")
        list(APPEND failed ${threads})
    endif()
endforeach()

if(failed)
    message(FATAL_ERROR "bench_paper output differs from ${GOLDEN} at "
                        "threads: ${failed}")
endif()
message(STATUS "bench_paper matches its golden at threads 1 and 4")
